package campaign

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric family names the campaign engine registers. Every name listed
// here must appear in ARCHITECTURE.md's Observability section —
// scripts/check_docs.sh enforces that via `driverlab metrics`.
const (
	// MetricBoots counts boots actually executed, per driver.
	MetricBoots = "driverlab_campaign_boots_total"
	// MetricOutcomes histograms recorded results by outcome row, per
	// driver — booted and resume-skipped results both count, so the
	// totals match the store.
	MetricOutcomes = "driverlab_campaign_outcomes_total"
	// MetricSkipped counts results the store already held (resume),
	// per driver.
	MetricSkipped = "driverlab_campaign_skipped_total"
	// MetricWorkerBoots counts boots per pool goroutine — the
	// per-worker throughput surface.
	MetricWorkerBoots = "driverlab_campaign_worker_boots_total"
	// MetricSteps histograms the watchdog step count each boot
	// consumed, per driver.
	MetricSteps = "driverlab_campaign_boot_steps"
	// MetricAppend histograms store.Append latency in seconds.
	MetricAppend = "driverlab_campaign_store_append_seconds"
	// MetricFlush histograms store checkpoint-flush latency in seconds.
	MetricFlush = "driverlab_campaign_store_flush_seconds"
	// MetricPanics counts boots the harness panicked on (recovered,
	// recorded as RowHarnessPanic and quarantined), per cell.
	MetricPanics = "driverlab_campaign_harness_panics_total"
	// MetricStoreRetries counts store appends that needed a backoff
	// retry after a transient failure.
	MetricStoreRetries = "driverlab_campaign_store_retries_total"
)

// MetricNames lists every metric family the campaign engine can
// register, for the docs check and the `driverlab metrics` subcommand.
func MetricNames() []string {
	return []string{
		MetricBoots, MetricOutcomes, MetricSkipped,
		MetricWorkerBoots, MetricSteps, MetricAppend, MetricFlush,
		MetricPanics, MetricStoreRetries,
	}
}

// Metrics is the engine's instrumentation bundle: per-driver counters
// and histograms resolved lazily against one obs.Collector. A nil
// *Metrics is the disabled bundle — every method is a no-op — so the
// engine threads it unconditionally.
type Metrics struct {
	col     *obs.Collector
	appendH *obs.Histogram
	flushH  *obs.Histogram
	retries *obs.Counter

	mu      sync.Mutex
	drivers map[string]*driverMetrics
	workers map[int]*obs.Counter
}

type driverMetrics struct {
	boots   *obs.Counter
	skipped *obs.Counter
	panics  *obs.Counter
	steps   *obs.Histogram

	mu       sync.Mutex
	outcomes map[string]*obs.Counter
}

// NewMetrics builds the engine's metric bundle on col. A nil collector
// yields a nil (disabled) bundle.
func NewMetrics(col *obs.Collector) *Metrics {
	if col == nil {
		return nil
	}
	return &Metrics{
		col: col,
		appendH: col.Histogram(MetricAppend,
			"Latency of one campaign store append.", obs.DurationBuckets),
		flushH: col.Histogram(MetricFlush,
			"Latency of one campaign store checkpoint flush.", obs.DurationBuckets),
		retries: col.Counter(MetricStoreRetries,
			"Store appends retried after a transient failure."),
		drivers: make(map[string]*driverMetrics),
		workers: make(map[int]*obs.Counter),
	}
}

// Collector returns the underlying collector (nil when disabled).
func (m *Metrics) Collector() *obs.Collector {
	if m == nil {
		return nil
	}
	return m.col
}

// ObserveFlush records one store checkpoint-flush duration; FileStore
// calls it through SetFlushHook.
func (m *Metrics) ObserveFlush(d time.Duration) {
	if m == nil {
		return
	}
	m.flushH.Observe(d.Seconds())
}

func (m *Metrics) driver(name string) *driverMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.drivers[name]
	if !ok {
		d = &driverMetrics{
			boots: m.col.Counter(MetricBoots,
				"Boots executed, per driver.", "driver", name),
			skipped: m.col.Counter(MetricSkipped,
				"Results the store already held on resume.", "driver", name),
			panics: m.col.Counter(MetricPanics,
				"Boots the harness panicked on (recovered and quarantined).",
				"driver", name),
			steps: m.col.Histogram(MetricSteps,
				"Watchdog steps one boot consumed.", obs.StepBuckets, "driver", name),
			outcomes: make(map[string]*obs.Counter),
		}
		m.drivers[name] = d
	}
	return d
}

// boot records one executed boot and its outcome.
func (m *Metrics) boot(driver, row string, steps int64) {
	if m == nil {
		return
	}
	d := m.driver(driver)
	d.boots.Inc()
	d.steps.Observe(float64(steps))
	m.outcomeCounter(d, driver, row).Inc()
}

// panicked records one recovered harness panic; the quarantined result
// also lands in the outcome histogram under RowHarnessPanic.
func (m *Metrics) panicked(driver string) {
	if m == nil {
		return
	}
	d := m.driver(driver)
	d.panics.Inc()
	m.outcomeCounter(d, driver, RowHarnessPanic).Inc()
}

// retry records one store append that needed a backoff retry.
func (m *Metrics) retry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

// skip records one result the store already held.
func (m *Metrics) skip(driver, row string) {
	if m == nil {
		return
	}
	d := m.driver(driver)
	d.skipped.Inc()
	m.outcomeCounter(d, driver, row).Inc()
}

func (m *Metrics) outcomeCounter(d *driverMetrics, driver, row string) *obs.Counter {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.outcomes[row]
	if !ok {
		c = m.col.Counter(MetricOutcomes,
			"Recorded results by outcome row (booted and resumed alike).",
			"driver", driver, "row", row)
		d.outcomes[row] = c
	}
	return c
}

// worker returns the boots counter for pool goroutine i (nil when the
// bundle is disabled — obs.Counter methods are nil-safe).
func (m *Metrics) worker(i int) *obs.Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.workers[i]
	if !ok {
		c = m.col.Counter(MetricWorkerBoots,
			"Boots executed, per pool goroutine.", "worker", strconv.Itoa(i))
		m.workers[i] = c
	}
	return c
}
