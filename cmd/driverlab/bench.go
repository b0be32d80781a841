package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// BenchDriver is the measured throughput of one driver's campaign.
type BenchDriver struct {
	Driver string `json:"driver"`
	// Backend is the execution backend the row was measured on.
	Backend string `json:"backend,omitempty"`
	// SamplePct is the row's effective mutant sampling percentage —
	// the -sample flag, unless the -min-boots floor raised it for a
	// driver whose mutation space is too small to sample meaningfully.
	SamplePct     int     `json:"sample_pct,omitempty"`
	Boots         int     `json:"boots"`
	ElapsedSec    float64 `json:"elapsed_s"`
	BootsPerSec   float64 `json:"boots_per_s"`
	AllocsPerBoot float64 `json:"allocs_per_boot"`
	BytesPerBoot  float64 `json:"bytes_per_boot"`
	// Phases is the per-phase boot time breakdown (-phases), in
	// pipeline order, from the collector's phase-span histograms.
	Phases []BenchPhase `json:"phases,omitempty"`
}

// BenchPhase is the measured cost of one boot-pipeline phase across a
// driver's bench campaign.
type BenchPhase struct {
	Phase    string  `json:"phase"`
	Count    int     `json:"count"`
	TotalSec float64 `json:"total_s"`
	MeanUS   float64 `json:"mean_us"`
	// Share is this phase's fraction of the summed phase time.
	Share float64 `json:"share"`
}

// phaseRows folds a collector's phase-span histograms into bench
// report rows, in pipeline order.
func phaseRows(col *obs.Collector) []BenchPhase {
	byPhase := make(map[string]*BenchPhase)
	var total float64
	for _, s := range col.Gather() {
		if s.Name != experiment.MetricBootPhase {
			continue
		}
		p := byPhase[s.Label("phase")]
		if p == nil {
			p = &BenchPhase{Phase: s.Label("phase")}
			byPhase[p.Phase] = p
		}
		p.Count += int(s.Count)
		p.TotalSec += s.Sum
		total += s.Sum
	}
	var out []BenchPhase
	for _, ph := range experiment.BootPhases {
		p := byPhase[ph]
		if p == nil {
			continue
		}
		if p.Count > 0 {
			p.MeanUS = p.TotalSec / float64(p.Count) * 1e6
		}
		if total > 0 {
			p.Share = p.TotalSec / total
		}
		out = append(out, *p)
	}
	return out
}

// BenchReport is the JSON shape of BENCH_campaign.json: one campaign
// throughput measurement per driver plus their aggregate (the one
// Totals row), keyed by the exact configuration so numbers are
// comparable across PRs.
type BenchReport struct {
	Bench      string        `json:"bench"`
	Backend    string        `json:"backend"`
	SamplePct  int           `json:"sample_pct"`
	Seed       uint64        `json:"seed"`
	Workers    int           `json:"workers"`
	GoMaxProcs int           `json:"go_max_procs"`
	Drivers    []BenchDriver `json:"drivers"`
	Totals     []BenchDriver `json:"totals"`
}

// loadBenchReport reads an earlier bench report for the -compare gate.
func loadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench -compare: %w", err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench -compare: %s: %w", path, err)
	}
	return &rep, nil
}

// compareReports gates the fresh measurement against an older report,
// printing a per-driver delta table and returning an error when any
// driver regressed beyond pct percent — in boots/s or in allocs/boot.
//
// The two reports usually come from different machines (the checked-in
// report vs a CI runner), so absolute boots/s are not comparable.
// Instead every common driver row gets a new/old throughput
// ratio and the median ratio is taken as the machine-speed factor; a
// driver regresses when its own ratio falls more than pct percent below
// that factor. This catches one driver's hot path eroding relative to
// the rest; a uniform slowdown of every driver is indistinguishable
// from a slower machine and needs a same-machine before/after run.
//
// Allocations per boot get the same normalized treatment (the median
// alloc ratio absorbs a deliberate fleet-wide allocator change, e.g. a
// new per-boot cache): a driver fails when its allocs/boot grow more
// than pct percent beyond the fleet's factor. Allocation counts are
// deterministic per code version, so this gate is far less noisy than
// throughput and catches a hot path quietly starting to allocate.
func compareReports(old, cur *BenchReport, pct float64) error {
	oldRows := make(map[string]BenchDriver)
	for _, d := range old.Drivers {
		if d.BootsPerSec > 0 {
			oldRows[d.Driver] = d
		}
	}
	type row struct {
		driver           string
		oldR, newR, rat  float64
		oldA, newA, arat float64 // allocs/boot; arat 0 when either side lacks it
	}
	var rows []row
	for _, d := range cur.Drivers {
		o, ok := oldRows[d.Driver]
		if !ok || d.BootsPerSec <= 0 {
			continue
		}
		r := row{
			driver: d.Driver,
			oldR:   o.BootsPerSec, newR: d.BootsPerSec, rat: d.BootsPerSec / o.BootsPerSec,
			oldA: o.AllocsPerBoot, newA: d.AllocsPerBoot,
		}
		if o.AllocsPerBoot > 0 && d.AllocsPerBoot > 0 {
			r.arat = d.AllocsPerBoot / o.AllocsPerBoot
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return fmt.Errorf("bench -compare: no driver rows in common with the old report")
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		m := v[len(v)/2]
		if n := len(v); n%2 == 0 {
			m = (v[n/2-1] + v[n/2]) / 2
		}
		return m
	}
	ratios := make([]float64, len(rows))
	var aratios []float64
	for i, r := range rows {
		ratios[i] = r.rat
		if r.arat > 0 {
			aratios = append(aratios, r.arat)
		}
	}
	scale := median(ratios)
	ascale := 1.0
	if len(aratios) > 0 {
		ascale = median(aratios)
	}
	floor := 1 - pct/100
	ceil := 1 + pct/100
	fmt.Printf("bench compare vs old report: machine-speed factor %.2fx, alloc factor %.2fx (medians of %d rows), threshold %.0f%%\n",
		scale, ascale, len(rows), pct)
	var bad []string
	for _, r := range rows {
		rel := r.rat / scale
		status := "ok"
		if rel < floor {
			status = "REGRESSED"
			bad = append(bad, fmt.Sprintf("%s throughput %.1f%% below the fleet", r.driver, 100*(1-rel)))
		}
		arel := 0.0
		if r.arat > 0 {
			arel = r.arat / ascale
			if arel > ceil {
				status = "REGRESSED"
				bad = append(bad, fmt.Sprintf("%s allocs/boot %.1f%% above the fleet (%.0f -> %.0f)",
					r.driver, 100*(arel-1), r.oldA, r.newA))
			}
		}
		fmt.Printf("  %-14s %9.1f -> %9.1f boots/s  %+6.1f%% vs fleet  %6.0f -> %6.0f allocs/boot  %s\n",
			r.driver, r.oldR, r.newR, 100*(rel-1), r.oldA, r.newA, status)
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench -compare: regression: %s", strings.Join(bad, "; "))
	}
	fmt.Println("bench compare vs old report: no driver regressed")
	return nil
}

// runBench measures end-to-end campaign throughput — the boots/s number
// every future scenario multiplies against — and optionally persists it.
// With -compare old.json it gates every driver against an earlier
// report (see compareReports). With -obs on (or
// -phases) the metric collector is enabled and the per-phase boot time
// breakdown lands in the report; -obs compare measures
// disabled-then-enabled and exits non-zero if the collector costs more
// than 3% throughput (reported rows keep the disabled numbers).
func runBench(args []string) error {
	fs := flag.NewFlagSet("driverlab bench", flag.ContinueOnError)
	driversFlag := fs.String("drivers", strings.Join(drivers.Names(), ","),
		"comma-separated driver list to measure")
	sample := fs.Int("sample", 2, "percentage of mutants to boot per driver")
	minBoots := fs.Int("min-boots", 25,
		"per-driver minimum boots: raise a driver's sampling percentage until at least this many mutants boot (0 disables)")
	seed := fs.Uint64("seed", 2001, "sampling seed")
	backendFlag := fs.String("backend", "", "hwC execution backend: block (default) or interp")
	comparePath := fs.String("compare", "",
		"older BENCH_campaign.json to gate against: exit non-zero if any driver regresses beyond -compare-pct")
	comparePct := fs.Float64("compare-pct", 25,
		"regression threshold for -compare, in percent, after cross-driver machine-speed normalization")
	workers := fs.Int("workers", 0, "boot worker count (default: GOMAXPROCS)")
	repeat := fs.Int("repeat", 1, "measurements per driver (the best is reported; >1 damps scheduler noise)")
	jsonOut := fs.Bool("json", false, "write the report to -out as JSON")
	out := fs.String("out", "BENCH_campaign.json", "report path for -json")
	obsFlag := fs.String("obs", "off",
		"metric collector: off (default), on, or compare (measure off then on; fail if enabled is >3% slower)")
	phases := fs.Bool("phases", false,
		"record the per-phase boot time breakdown per driver (implies -obs on)")
	cpuProfile := fs.String("cpuprofile", "",
		"write a pprof CPU profile of the campaign loop to this file")
	memProfile := fs.String("memprofile", "",
		"write a pprof allocation profile of the campaign loop to this file")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	backend, err := experiment.ParseBackend(*backendFlag)
	if err != nil {
		return err
	}
	switch *obsFlag {
	case "off", "on", "compare":
	default:
		return fmt.Errorf("bench: unknown -obs mode %q (want off, on or compare)", *obsFlag)
	}
	if *phases && *obsFlag == "off" {
		*obsFlag = "on"
	}

	report := BenchReport{
		Bench:      "campaign",
		Backend:    string(backend),
		SamplePct:  *sample,
		Seed:       *seed,
		Workers:    *workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// The profiles cover exactly the measurement loop below — campaign
	// boots plus the warm-up expansion, none of the report plumbing — so
	// the flat top of the CPU profile is the boot hot path.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("bench -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("bench -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	wl := experiment.NewWorkload()
	total := BenchDriver{Driver: "total", Backend: string(backend)}
	var allocs, bytes float64
	for _, driver := range strings.Split(*driversFlag, ",") {
		driver = strings.TrimSpace(driver)
		if driver == "" {
			continue
		}
		opts := experiment.MutationOptions{SamplePct: *sample, Seed: *seed, Backend: backend}
		spec := experiment.CampaignSpec(driver, opts)
		spec.Name = "bench"

		// Warm the per-campaign caches (enumeration, spec compilation) so
		// the measurement is the steady-state hot path — and pre-flight
		// the work-list size for the sampling floor: a boots/s number
		// derived from a handful of boots is scheduler noise, so a
		// driver whose mutation space is too small for -sample gets its
		// percentage raised until at least -min-boots mutants boot.
		metas, _, err := wl.Expand(spec)
		if err != nil {
			return err
		}
		effPct := *sample
		if *minBoots > 0 && len(metas) > 0 {
			m := metas[0]
			if m.Selected < *minBoots && m.Selected < m.Enumerated {
				effPct = (*minBoots*100 + m.Enumerated - 1) / m.Enumerated
				if effPct > 100 {
					effPct = 100
				}
				opts.SamplePct = effPct
				spec = experiment.CampaignSpec(driver, opts)
				spec.Name = "bench"
				if _, _, err := wl.Expand(spec); err != nil {
					return err
				}
			}
		}

		// measure runs the campaign *repeat times against one workload
		// (instrumented or not) and keeps the best run.
		measure := func(mwl campaign.Workload, metrics *campaign.Metrics) (BenchDriver, error) {
			var best BenchDriver
			for rep := 0; rep < max(*repeat, 1); rep++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				start := time.Now()
				store := campaign.NewMemStore()
				sum, err := campaign.Run(spec, mwl, store, campaign.Options{
					Workers: *workers, Metrics: metrics,
				})
				if err != nil {
					return best, fmt.Errorf("bench %s: %w", driver, err)
				}
				elapsed := time.Since(start).Seconds()
				runtime.ReadMemStats(&after)

				boots := sum.Ran
				r := BenchDriver{
					Driver:     driver,
					Boots:      boots,
					ElapsedSec: elapsed,
				}
				if boots > 0 && elapsed > 0 {
					r.BootsPerSec = float64(boots) / elapsed
					r.AllocsPerBoot = float64(after.Mallocs-before.Mallocs) / float64(boots)
					r.BytesPerBoot = float64(after.TotalAlloc-before.TotalAlloc) / float64(boots)
				}
				if rep == 0 || r.BootsPerSec > best.BootsPerSec {
					best = r
				}
			}
			return best, nil
		}
		// observed builds a fresh collector plus a workload bound to it,
		// warmed like the shared one.
		observed := func() (*obs.Collector, campaign.Workload, error) {
			col := obs.New()
			owl := experiment.NewObservedWorkload(col)
			if _, _, err := owl.Expand(spec); err != nil {
				return nil, nil, err
			}
			return col, owl, nil
		}

		var d BenchDriver
		var col *obs.Collector
		switch *obsFlag {
		case "off":
			d, err = measure(wl, nil)
		case "on":
			var owl campaign.Workload
			col, owl, err = observed()
			if err != nil {
				return err
			}
			d, err = measure(owl, campaign.NewMetrics(col))
		case "compare":
			d, err = measure(wl, nil)
			if err != nil {
				return err
			}
			var owl campaign.Workload
			col, owl, err = observed()
			if err != nil {
				return err
			}
			var e BenchDriver
			e, err = measure(owl, campaign.NewMetrics(col))
			if err == nil {
				// The acceptance bar for the instrumentation layer: with
				// the collector fully enabled, throughput may not regress
				// more than 3%.
				const obsBand = 0.97
				if e.BootsPerSec < d.BootsPerSec*obsBand {
					return fmt.Errorf("bench -obs compare: %s with the collector enabled is >3%% slower (%.1f vs %.1f boots/s)",
						driver, e.BootsPerSec, d.BootsPerSec)
				}
				fmt.Printf("bench %-14s collector overhead %.1f%% (%.1f vs %.1f boots/s): ok\n",
					driver, 100*(1-e.BootsPerSec/d.BootsPerSec), e.BootsPerSec, d.BootsPerSec)
			}
		}
		if err != nil {
			return err
		}
		if *phases && col != nil {
			d.Phases = phaseRows(col)
		}
		d.Backend = string(backend)
		d.SamplePct = effPct
		report.Drivers = append(report.Drivers, d)
		total.Boots += d.Boots
		total.ElapsedSec += d.ElapsedSec
		allocs += d.AllocsPerBoot * float64(d.Boots)
		bytes += d.BytesPerBoot * float64(d.Boots)
		fmt.Printf("bench %-14s %5d boots  %8.1f boots/s  %8.0f allocs/boot  %10.0f B/boot\n",
			driver, d.Boots, d.BootsPerSec, d.AllocsPerBoot, d.BytesPerBoot)
		for _, p := range d.Phases {
			fmt.Printf("      phase %-9s %7d spans  %10.1f us/span  %5.1f%% of phase time\n",
				p.Phase, p.Count, p.MeanUS, 100*p.Share)
		}
	}
	if total.Boots > 0 && total.ElapsedSec > 0 {
		total.BootsPerSec = float64(total.Boots) / total.ElapsedSec
		total.AllocsPerBoot = allocs / float64(total.Boots)
		total.BytesPerBoot = bytes / float64(total.Boots)
	}
	report.Totals = []BenchDriver{total}
	fmt.Printf("bench %-14s %5d boots  %8.1f boots/s  %8.0f allocs/boot  %10.0f B/boot\n",
		"total", total.Boots, total.BootsPerSec, total.AllocsPerBoot, total.BytesPerBoot)

	if *cpuProfile != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
		fmt.Printf("bench CPU profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("bench -memprofile: %w", err)
		}
		// The allocs profile carries cumulative allocation sites since
		// process start — effectively the campaign loop, which dwarfs
		// flag parsing — so no GC fence is needed for alloc_objects.
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("bench -memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("bench -memprofile: %w", err)
		}
		fmt.Printf("bench allocation profile written to %s\n", *memProfile)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("bench report written to %s\n", *out)
	}

	if *comparePath != "" {
		old, err := loadBenchReport(*comparePath)
		if err != nil {
			return err
		}
		if err := compareReports(old, &report, *comparePct); err != nil {
			return err
		}
	}

	return nil
}
