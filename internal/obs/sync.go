package obs

import (
	"io"
	"sync"
)

// SyncRegistry is a mutex-guarded Registry for concurrent writers —
// the sweep service's HTTP handlers and runner workers, as opposed to
// the single-goroutine simulator a bare Registry serves. Operations go
// through value-passing methods instead of returned metric pointers so
// every touch happens under the lock. Its one read path is
// WritePrometheus, under the same lock. All methods are nil-safe,
// mirroring the rest of the package.
type SyncRegistry struct {
	mu  sync.Mutex
	reg *Registry
}

// NewSyncRegistry returns an empty concurrent registry.
func NewSyncRegistry() *SyncRegistry {
	return &SyncRegistry{reg: NewRegistry()}
}

// Add increments the named counter by delta, creating it with
// direction d on first use, and returns the new tally. Because the
// increment and the read share the lock, concurrent callers each see a
// distinct tally — a counter can number events, not just count them.
func (s *SyncRegistry) Add(name string, d Dir, delta uint64) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.reg.Counter(name, d)
	c.Add(delta)
	return c.Value()
}

// Inc increments the named counter by one.
func (s *SyncRegistry) Inc(name string, d Dir) { s.Add(name, d, 1) }

// Set records one sample on the named gauge.
func (s *SyncRegistry) Set(name string, d Dir, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg.Gauge(name, d).Set(v)
	s.mu.Unlock()
}

// Observe records one value on the named histogram.
func (s *SyncRegistry) Observe(name string, d Dir, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg.Histogram(name, d).Observe(v)
	s.mu.Unlock()
}

// WritePrometheus renders the registry in the Prometheus text format
// under the lock, so a scrape racing writers sees a consistent
// snapshot of each metric.
func (s *SyncRegistry) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.WritePrometheus(w)
}
