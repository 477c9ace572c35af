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

// cacheable reports whether a terminal outcome is a verdict worth keeping:
// done verdicts and deterministic limit overflows are, while cancelled and
// internally-failed runs are not, so a resubmission retries them.
func cacheable(status JobStatus, jobErr *ErrorPayload) bool {
	return status == StatusDone || (status == StatusFailed && jobErr != nil && jobErr.Kind == "limit")
}

// submit resolves a cache key under single-flight: an existing entry
// returns its job (hit when it finished with a cacheable outcome, inflight
// while it runs); a miss runs mk to create the job and inserts it before
// releasing the lock, so N concurrent identical submissions produce exactly
// one exploration. An entry whose job finished uncacheable but is not
// settled yet counts as absent, and the miss replaces it. When mk fails,
// nothing is inserted or counted and its error is returned.
func (c *resultCache) submit(key string, mk func() (*Job, error)) (*Job, CacheState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*cacheEntry)
		status, jobErr := e.job.outcome()
		switch {
		case !terminal(status):
			c.lru.MoveToFront(el)
			c.joined++
			return e.job, CacheInflight, nil
		case cacheable(status, jobErr):
			c.lru.MoveToFront(el)
			c.hits++
			return e.job, CacheHit, nil
		}
	}
	j, err := mk()
	if err != nil {
		return nil, "", err
	}
	if ok {
		c.lru.Remove(el)
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

// settle is called when a job reaches a terminal state: an uncacheable
// outcome drops the job's entry so a resubmission retries, while a cacheable
// one stays. Only the job's own entry goes: a job can be settled twice (when
// cancelled while queued, and when its worker dequeues it), and by then its
// key may map to a resubmission.
func (c *resultCache) settle(j *Job) {
	if cacheable(j.outcome()) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[j.cacheKey]; ok && el.Value.(*cacheEntry).job == j {
		c.lru.Remove(el)
		delete(c.entries, j.cacheKey)
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
