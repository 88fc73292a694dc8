package server

import (
	"fmt"
	"os"
	"runtime"

	"seoracle/internal/core"
)

// mapping owns one live memory mapping. Flat indexes decoded from it alias
// its bytes (core.LoadBytesOpts slices instead of copying), so the munmap must
// wait until no index reads it: every zero-copy index retains the *mapping
// through core's keep plumbing, and the finalizer fires after the last one
// is collected. Mapped memory is invisible to the Go heap, so a finalizer
// on this heap-allocated owner is the only GC hook available.
type mapping struct {
	data  []byte
	close func() error
}

// release closes the mapping immediately — used when the decode produced no
// zero-copy index (everything was copied to the heap) or failed.
func (m *mapping) release() error {
	if m.close == nil {
		return nil
	}
	c := m.close
	m.close = nil
	return c()
}

// finishLoad decides the mapping's lifetime after a decode: an index that
// reads the mapping in place (core.MappedBytesOf > 0) keeps it alive until
// the index is collected; otherwise it is released on the spot.
func (m *mapping) finishLoad(idx core.DistanceIndex, derr error) error {
	if derr == nil && core.MappedBytesOf(idx) > 0 {
		runtime.SetFinalizer(m, func(m *mapping) { _ = m.release() })
		return derr
	}
	if cerr := m.release(); derr == nil && cerr != nil {
		return fmt.Errorf("server: releasing index mapping: %w", cerr)
	}
	return derr
}

// LoadIndexOpts loads an index container from disk: the one file helper
// every tool shares. When useMmap is set on a platform that supports it,
// the file is memory-mapped and decoded in place via core.LoadBytesOpts:
// decoded kinds copy their payloads to the heap and the mapping is released
// before returning, while flat members and lazily loaded members read the
// mapping in place, keeping it alive, finalizer-backed, for as long as the
// index does. Hot reload and the endpoint LRU need no special handling: an
// old index dropped from serving keeps its mapping until the GC proves
// nothing queries it. Otherwise the file is read through core.Load, which
// adds the envelope CRC check (see core.Load for when it applies).
func LoadIndexOpts(path string, useMmap bool, opt core.LoadOptions) (core.DistanceIndex, []core.Quarantined, error) {
	if useMmap {
		data, closer, err := mmapFile(path)
		if err == nil {
			m := &mapping{data: data, close: closer}
			idx, quarantined, derr := core.LoadBytesOpts(m.data, m, opt)
			if derr = m.finishLoad(idx, derr); derr != nil {
				return nil, nil, derr
			}
			return idx, quarantined, nil
		}
		if err != errMmapUnsupported {
			return nil, nil, fmt.Errorf("server: mmap %s: %w", path, err)
		}
		// Fall through to reading the file on platforms without mmap.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return core.Load(f, opt)
}
