package perfecthash

import (
	"sync"
	"testing"
)

// TestConcurrentProbes pins the sharing contract the sharded index relies
// on: a built compact layout is immutable, so any number of goroutines may
// probe it concurrently without synchronization. The test is exercised
// under the race detector by `make race`.
func TestConcurrentProbes(t *testing.T) {
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	tab := mustTable(t, keys, 42)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range keys {
				if v, ok := tab.lookup(k); !ok || v != int32(i) {
					t.Errorf("lookup(%#x) = %d, %v; want %d", k, v, ok, i)
					return
				}
				if v, ok := tab.lookup(^k); ok && keys[v] != ^k {
					t.Errorf("lookup(%#x) aliased onto member %#x", ^k, keys[v])
					return
				}
			}
		}()
	}
	wg.Wait()
}
