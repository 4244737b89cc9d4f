package lint

import (
	"path/filepath"
	"sync/atomic"

	"solarcore/internal/lru"
)

// The module load — parsing and type-checking every package, plus the
// standard library from GOROOT source — dominates a solarvet run, so the
// cache below pays it once per module root per process. Loaded modules
// are immutable after LoadModule returns, so sharing the *Module (and
// every *types.Info inside it) across concurrent Runs is safe. solarvet
// never rewrites sources, so a cached module never goes stale within one
// process; a caller that edits a module must load it from a new root.

// moduleCacheCap bounds the module cache. The process that loads the
// most roots is `go test ./internal/lint`: at most the module plus its 21
// testdata fixture directories, 22 in all. 32 leaves room for new
// fixtures, and a root evicted past it only costs a reload.
const moduleCacheCap = 32

var (
	moduleCache = lru.New[string, *Module](moduleCacheCap)

	// moduleLoads counts full LoadModule executions, so tests can pin
	// the single-load behavior.
	moduleLoads atomic.Int64
)

// LoadModuleCached returns the loaded module for root, performing the
// expensive parse + type-check at most once per root per process.
// Concurrent callers for the same root share one load; a failed load is
// not cached.
func LoadModuleCached(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, _, err := moduleCache.Do(abs, nil, func() (*Module, error) { return LoadModule(abs) })
	return mod, err
}

// ModuleLoads returns how many full (uncached) module loads have run in
// this process.
func ModuleLoads() int64 { return moduleLoads.Load() }
