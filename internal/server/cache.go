package server

import (
	"container/list"
	"sync"
)

// CacheState classifies a submission against the result cache.
type CacheState string

// Submission outcomes.
const (
	// CacheMiss: no entry — the submission starts a fresh exploration.
	CacheMiss CacheState = "miss"
	// CacheHit: a finished entry — the cached verdict is returned without
	// exploring.
	CacheHit CacheState = "hit"
	// CacheInflight: an identical exploration is already queued or running —
	// the submission joins it (single-flight dedup).
	CacheInflight CacheState = "inflight"
	// CacheDelta: no exact entry, but the recorded verdict of a classify
	// build differing only in silence policy — the failure-free G(C) is the
	// same graph, so the job answers with that verdict instead of
	// rebuilding once its monotone roots match the recorded ones.
	CacheDelta CacheState = "delta"
)

// CacheStats is the observability face of the result cache.
type CacheStats struct {
	// Hits counts submissions served from a finished entry.
	Hits int64 `json:"hits"`
	// InflightHits counts submissions deduplicated onto a queued or running
	// identical job.
	InflightHits int64 `json:"inflightHits"`
	// Misses counts submissions that started a fresh exploration
	// (delta-tier submissions are counted here AND in DeltaHits: they
	// missed the exact cache but avoided a full rebuild).
	Misses int64 `json:"misses"`
	// DeltaHits counts submissions acknowledged "delta": routed to a
	// policy-variant's recorded verdict instead of a rebuild.
	DeltaHits int64 `json:"deltaHits"`
	// Inflight is the number of entries whose job has not finished yet.
	Inflight int `json:"inflight"`
	// Entries is the current entry count (bounded by the -cache flag).
	Entries int `json:"entries"`
}

// resultCache maps canonical-fingerprint cache keys to the job holding (or
// computing) the verdict. One mutex covers lookup, single-flight insertion
// and LRU maintenance: the critical sections are map operations, never
// exploration. Entries whose job is still running are exempt from eviction,
// so the single-flight guarantee survives a full cache.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // -> *cacheEntry
	lru     *list.List               // front = most recent
	hits    int64
	joined  int64
	misses  int64
}

type cacheEntry struct {
	key string
	job *Job
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// submit resolves a cache key under single-flight: an existing entry
// returns its job (hit when finished, inflight otherwise); a miss runs mk
// to create the job and inserts it before releasing the lock, so N
// concurrent identical submissions produce exactly one exploration. When mk
// fails, nothing is inserted or counted and its error is returned.
func (c *resultCache) submit(key string, mk func() (*Job, error)) (*Job, CacheState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.lru.MoveToFront(el)
		if terminal(e.job.Status()) {
			c.hits++
			return e.job, CacheHit, nil
		}
		c.joined++
		return e.job, CacheInflight, nil
	}
	j, err := mk()
	if err != nil {
		return nil, "", err
	}
	c.misses++
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, job: j})
	c.evictLocked()
	return j, CacheMiss, nil
}

// evictLocked drops least-recently-used finished entries beyond the bound.
// The jobs themselves stay in the job store; only cache reachability ends.
func (c *resultCache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && len(c.entries) > c.max; {
		prev := el.Prev()
		if e := el.Value.(*cacheEntry); terminal(e.job.Status()) {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
		el = prev
	}
}

// settle is called when a job reaches a terminal state: cancelled and
// internally-failed runs are dropped so a resubmission retries, while done
// verdicts and deterministic limit overflows stay cached.
func (c *resultCache) settle(key string, status JobStatus, jobErr *ErrorPayload) {
	cacheable := status == StatusDone || (status == StatusFailed && jobErr != nil && jobErr.Kind == "limit")
	if cacheable {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	inflight := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if !terminal(el.Value.(*cacheEntry).job.Status()) {
			inflight++
		}
	}
	return CacheStats{
		Hits:         c.hits,
		InflightHits: c.joined,
		Misses:       c.misses,
		Inflight:     inflight,
		Entries:      len(c.entries),
	}
}
