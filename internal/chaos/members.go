package chaos

import (
	"fmt"

	"seoracle/internal/core"
)

// FailMembers simulates member-body decode failures on a loaded multi
// index: the named members are quarantined through
// core.ShardedIndex.Quarantine, exactly as if their container bodies had
// failed their CRCs in a degraded load — on a LOD container the survivors
// keep the global id space, the portals and the coarse level. The on-disk
// file is untouched: this rehearses degraded serving (503s for quarantined
// members, /readyz quorum) without corrupting anything. Unknown names and
// non-multi indexes are errors: an operator asking to fail a member that
// does not exist is holding the wrong flag.
func FailMembers(idx core.DistanceIndex, names []string) (core.DistanceIndex, []core.Quarantined, error) {
	if len(names) == 0 {
		return idx, nil, nil
	}
	sh, ok := idx.(*core.ShardedIndex)
	if !ok {
		return nil, nil, fmt.Errorf("chaos: cannot fail members of a single %s index", idx.Stats().Kind)
	}
	out, quarantined, err := sh.Quarantine(names, fmt.Errorf("chaos: injected member decode failure"))
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: %w", err)
	}
	return out, quarantined, nil
}
