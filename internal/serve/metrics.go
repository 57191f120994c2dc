package serve

import (
	"strconv"

	"hotspot/internal/obs"
)

// stage names for per-stage latency tracking. "extract" and "infer" are
// the two compute stages of a flushed batch, "batch" is a whole flush
// (dequeue to replies), "queue" is a request's wait between enqueue and
// its batch starting, and "request" is a predict request's wall time
// inside the handler (body decoding and queue wait included, response
// encoding excluded).
const (
	stageExtract = "extract"
	stageInfer   = "infer"
	stageBatch   = "batch"
	stageQueue   = "queue"
	stageRequest = "request"
)

// metrics adapts the server's instrumentation points onto an obs.Registry.
// Each server owns a private registry (tests boot several servers in one
// process), with the stage metric renamed to serve_stage_seconds so the
// scrape keeps the series names the service has always exposed. The
// sliding-window quantile summaries replace the serve-private ring buffers
// the package used before internal/obs existed — and fix their truncation
// quantile bias (obs.Summary uses ceiling nearest-rank).
type metrics struct {
	reg      *obs.Registry
	hits     *obs.Counter
	misses   *obs.Counter
	batches  *obs.IntHist
	cacheLen func() int

	// The stage summaries, resolved once here so the request path never
	// looks a series up by name.
	extractSum, inferSum, batchSum, queueSum, requestSum *obs.Summary

	// buildLabels remembers the label set of the current hsd_build_info
	// series so a model swap can zero the superseded generation's series
	// before registering the new one. Guarded by the server's reloadMu
	// (buildInfo is only called from LoadNetwork).
	buildLabels []obs.Label
}

func newMetrics(cacheLen func() int) *metrics {
	reg := obs.NewRegistry()
	reg.SetStageMetric("serve_stage_seconds")
	m := &metrics{
		reg:      reg,
		hits:     reg.Counter("serve_cache_hits_total"),
		misses:   reg.Counter("serve_cache_misses_total"),
		batches:  reg.IntHist("serve_batch_size_total", "size"),
		cacheLen: cacheLen,
	}
	reg.GaugeFunc("serve_cache_hit_rate", 6, func() float64 {
		return hitRate(m.hits.Value(), m.misses.Value())
	})
	reg.GaugeFunc("serve_cache_entries", -1, func() float64 {
		return float64(cacheLen())
	})
	// Resolving every stage here also makes each scrape list the full
	// stage taxonomy, observed or not.
	m.extractSum = reg.Stage(stageExtract)
	m.inferSum = reg.Stage(stageInfer)
	m.batchSum = reg.Stage(stageBatch)
	m.queueSum = reg.Stage(stageQueue)
	m.requestSum = reg.Stage(stageRequest)
	return m
}

func hitRate(hits, misses int64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func (m *metrics) request(endpoint string, status int) {
	m.reg.Counter("serve_requests_total",
		obs.L("endpoint", endpoint), obs.L("status", strconv.Itoa(status))).Inc()
}

func (m *metrics) cache(hit bool) {
	if hit {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
}

func (m *metrics) batch(size int) { m.batches.Observe(size) }

// buildInfo (re)registers the hsd_build_info gauge for a freshly
// installed model generation: binary identity labels plus the model
// generation. Called under the server's reloadMu.
func (m *metrics) buildInfo(generation int) {
	if m.buildLabels != nil {
		m.reg.Gauge(obs.BuildInfoMetric, -1, m.buildLabels...).Set(0)
	}
	labels := obs.BuildLabels(
		obs.L("model_generation", strconv.Itoa(generation)))
	m.reg.Gauge(obs.BuildInfoMetric, -1, labels...).Set(1)
	m.buildLabels = labels
}

// StageStats summarizes one pipeline stage's latency.
type StageStats struct {
	// Count is the total number of observations since startup.
	Count int64
	// P50 and P99 are quantiles in seconds over the most recent
	// observations (a sliding window of obs.DefaultWindow samples).
	P50, P99 float64
}

// MetricsSnapshot is a point-in-time copy of every counter, exposed for
// tests and programmatic scraping. The /metrics endpoint renders the same
// registry as text.
type MetricsSnapshot struct {
	// Requests counts finished HTTP requests by endpoint and status code.
	Requests map[string]map[int]int64
	// CacheHits and CacheMisses count predict-pipeline cache lookups.
	CacheHits, CacheMisses int64
	// CacheLen is the current number of cached clips.
	CacheLen int
	// BatchSizes histograms flushed micro-batches by exact size.
	BatchSizes map[int]int64
	// Stages maps stage name (extract, infer, batch, queue, request) to
	// latency stats.
	Stages map[string]StageStats
}

func (m *metrics) snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Requests:    make(map[string]map[int]int64),
		CacheHits:   m.hits.Value(),
		CacheMisses: m.misses.Value(),
		CacheLen:    m.cacheLen(),
		BatchSizes:  m.batches.Counts(),
		Stages:      make(map[string]StageStats),
	}
	for _, s := range m.reg.Snapshot("serve_requests_total") {
		code, err := strconv.Atoi(s.Label("status"))
		if err != nil {
			continue
		}
		ep := s.Label("endpoint")
		byStatus, ok := snap.Requests[ep]
		if !ok {
			byStatus = make(map[int]int64)
			snap.Requests[ep] = byStatus
		}
		byStatus[code] = int64(s.Value)
	}
	for _, s := range m.reg.Snapshot("serve_stage_seconds") {
		snap.Stages[s.Label("stage")] = StageStats{Count: s.Count, P50: s.P50, P99: s.P99}
	}
	return snap
}
