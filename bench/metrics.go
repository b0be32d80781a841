package main

import (
	"math"
	"slices"
)

// metricDef describes one reported metric. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps them in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics of the untraced run, as a user of the
// campaign engine sees them. The timing bounds are wide because the
// shared 2-core host the benchmark was built on moves run-to-run speed
// by 15-25% (bench/README.md); the allocation counts repeat exactly.
var endToEnd = []metricDef{
	{"boots_per_s", "boots/s", "higher", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"boot_p50_us", "us", "lower", 0.24},
	{"allocs_per_boot", "allocs", "lower", 0.02},
	{"bytes_per_boot", "B", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the metrics of the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"phase.respan_us", "us", "lower", 0},
		{"phase.check_us", "us", "lower", 0},
		{"phase.compile_us", "us", "lower", 0},
		{"phase.execute_us", "us", "lower", 0},
		{"phase.classify_us", "us", "lower", 0},
	}
	for _, l := range layers {
		defs = append(defs,
			metricDef{"cpu." + l + "_share", "fraction", "lower", 0},
			metricDef{"cpu." + l + "_us_per_boot", "us", "lower", 0})
	}
	return append(defs, []metricDef{
		{"work.ns_per_step", "ns", "lower", 0},
		{"work.steps_per_boot", "steps", "lower", 0},
		{"work.compile_detected_frac", "fraction", "higher", 0},
		{"work.port_accesses_per_boot", "accesses", "lower", 0},
		{"work.bus_faults_per_boot", "faults", "lower", 0},
		{"work.injected_faults_per_boot", "faults", "lower", 0},
		{"engine.busy_frac", "fraction", "higher", 0},
		{"engine.overhead_us_per_boot", "us", "lower", 0},
		{"store.append_us", "us", "lower", 0},
		{"store.flush_us", "us", "lower", 0},
		{"exec.snapshot_hit_frac", "fraction", "higher", 0},
		{"exec.full_frontend_frac", "fraction", "lower", 0},
		{"exec.interp_fallback_frac", "fraction", "lower", 0},
		{"trace.overhead_frac", "fraction", "lower", 0},
	}...)
}()

// unlisted metrics are printed and kept in report.json, but
// BENCHMARK.json does not list them. Listed metrics must never read 0,
// and the correctness fractions do: they are the result line's correct
// and failed fields instead. boot_p99_us falls among the C drivers'
// watchdog-bound boots on corpus and faults, which the shared host slows
// out of proportion. Its spread reached 29-49% there (bench/README.md),
// more than any bound the format allows, so it is reported, not gated.
var unlisted = []metricDef{
	{"boot_p99_us", "us", "lower", 0},
	{"failed_frac", "fraction", "lower", 0},
	{"wrong_frac", "fraction", "lower", 0},
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (its default, exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		m := median(v)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank q-quantile of sorted durations.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}
