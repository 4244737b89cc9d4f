package obs

// HTTP-serving observability (DESIGN.md §12): solard's access log rides
// the same versioned JSONL envelope as the simulation event stream, so
// one ReadEvents call decodes either (or a mixed file). Requests are not
// simulation events, so the engine never emits an AccessEvent; the HTTP
// edge hands one straight to its sink's On.

// Cache-disposition labels an AccessEvent.Cache carries (empty for
// endpoints that run no simulation).
const (
	// CacheHit means the response was replayed from the LRU result cache.
	CacheHit = "hit"
	// CacheMiss means the request ran (and populated the cache).
	CacheMiss = "miss"
	// CacheCoalesced means the request joined an identical in-flight run.
	CacheCoalesced = "coalesced"
)

// AccessEvent is one structured access-log record of the solard HTTP
// server: one line per completed request.
type AccessEvent struct {
	// Method and Path identify the request route.
	Method string `json:"method"`
	Path   string `json:"path"`
	// Status is the HTTP status code sent.
	Status int `json:"status"`
	// DurMs is the handler wall time in milliseconds; zero when the
	// server runs without a clock (serve.Config.Clock).
	DurMs float64 `json:"dur_ms"`
	// Bytes is the response body size.
	Bytes int `json:"bytes"`
	// Cache is the cache disposition (CacheHit, CacheMiss,
	// CacheCoalesced) of simulation endpoints; empty otherwise.
	Cache string `json:"cache,omitempty"`
	// Remote is the client address, when known.
	Remote string `json:"remote,omitempty"`
}
