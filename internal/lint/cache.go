package lint

import (
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The module load — parsing and type-checking every package, plus the
// standard library from GOROOT source — dominates a solarvet run. One
// test process used to pay it once per lint.Run call (the root gate,
// fixture helpers, benchmarks); the cache below pins it to once per
// module root per process. Loaded modules are immutable after
// LoadModule returns, so sharing the *Module (and every *types.Info
// inside it) across concurrent Runs is safe. solarvet never rewrites
// sources, so a cached module never goes stale within one process; a
// caller that edits a module must load it from a new root.

var (
	moduleCacheMu sync.Mutex
	moduleCache   = map[string]*moduleCacheEntry{}

	// moduleLoads counts full LoadModule executions, so tests can pin
	// the single-load behavior.
	moduleLoads atomic.Int64
)

type moduleCacheEntry struct {
	once sync.Once
	mod  *Module
	err  error
}

// LoadModuleCached returns the loaded module for root, performing the
// expensive parse + type-check at most once per root per process.
// Concurrent callers for the same root share one load.
func LoadModuleCached(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	moduleCacheMu.Lock()
	e, ok := moduleCache[abs]
	if !ok {
		e = &moduleCacheEntry{}
		moduleCache[abs] = e
	}
	moduleCacheMu.Unlock()
	e.once.Do(func() { e.mod, e.err = LoadModule(abs) })
	return e.mod, e.err
}

// ModuleLoads returns how many full (uncached) module loads have run in
// this process.
func ModuleLoads() int64 { return moduleLoads.Load() }
