package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/fleet"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// runCampaign dispatches the campaign subcommands: run, resume, merge,
// report, status.
func runCampaign(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("campaign: want a verb: run, resume, merge, report or status")
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "run":
		return campaignRun(rest, false)
	case "resume":
		return campaignRun(rest, true)
	case "merge":
		return campaignMerge(rest)
	case "report":
		return campaignReport(rest)
	case "status":
		return campaignStatus(rest)
	default:
		return fmt.Errorf("campaign: unknown verb %q (want run, resume, merge, report or status)", verb)
	}
}

// runMetrics lists every metric family the instrumented stack can
// register — scripts/check_docs.sh greps this list against
// ARCHITECTURE.md's Observability section.
func runMetrics(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("metrics: takes no arguments")
	}
	names := append(campaign.MetricNames(), experiment.BootMetricNames()...)
	names = append(names, fleet.MetricNames()...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

// runScenarios lists the hardware scenarios — the values
// `campaign run -scenario` accepts. With -names it prints bare names
// only; scripts/check_docs.sh greps that list against the docs.
func runScenarios(args []string) error {
	fs := flag.NewFlagSet("driverlab scenarios", flag.ContinueOnError)
	names := fs.Bool("names", false, "print bare scenario names only (for scripts)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("scenarios: takes no arguments")
	}
	for _, d := range experiment.Scenarios() {
		if *names {
			fmt.Println(d.Name)
		} else {
			fmt.Printf("%-12s %s\n", d.Name, d.Help)
		}
	}
	return nil
}

// parseShards parses "-shard 0,2,5" into indices.
func parseShards(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad shard list %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// checkExecFlags rejects execution-flag values the engine would
// otherwise ignore or misread. A command without one of the flags
// passes its neutral value (0, or 1 shard).
func checkExecFlags(workers, shards int, bootTimeout time.Duration) error {
	switch {
	case workers < 0:
		return fmt.Errorf("-workers %d: want 0 (GOMAXPROCS) or a positive count", workers)
	case shards < 1:
		return fmt.Errorf("-shards %d: want at least 1", shards)
	case bootTimeout < 0 || bootTimeout%time.Millisecond != 0:
		return fmt.Errorf("-boot-timeout %v: want 0 (the 30s default) or a positive whole number of milliseconds", bootTimeout)
	}
	return nil
}

// storedSpec extracts the spec record of an existing store.
func storedSpec(store campaign.Store) (campaign.Spec, bool) {
	for _, r := range store.Records() {
		if r.Kind == campaign.KindSpec && r.Spec != nil {
			return *r.Spec, true
		}
	}
	return campaign.Spec{}, false
}

// specFlags are the campaign spec flags that `campaign run` and `serve`
// both declare.
type specFlags struct {
	name, drivers, stub, backend, scenarios *string
	sample, shards                          *int
	seed                                    *uint64
	permissive                              *bool
}

// addSpecFlags declares the spec flags on fs, with the -shards default
// and the -shards and -scenario help texts the caller gives.
func addSpecFlags(fs *flag.FlagSet, shards int, shardsUsage, scenarioUsage string) *specFlags {
	return &specFlags{
		name: fs.String("name", "campaign", "campaign name"),
		drivers: fs.String("drivers", "ide_c,ide_devil",
			"comma-separated driver list ("+strings.Join(drivers.Names(), ", ")+")"),
		sample:     fs.Int("sample", 25, "percentage of mutants to boot (paper: 25)"),
		seed:       fs.Uint64("seed", 2001, "sampling seed"),
		shards:     fs.Int("shards", shards, shardsUsage),
		stub:       fs.String("stub", "", "Devil stub mode: debug (default) or production"),
		permissive: fs.Bool("permissive", false, "downgrade CDevil typing to plain C rules"),
		backend:    fs.String("backend", "", "hwC execution backend: block (default) or interp"),
		scenarios:  fs.String("scenario", "", scenarioUsage),
	}
}

// spec builds the campaign spec the flags name. Aliases of the same
// engine ("tree", "block" vs "") are canonicalized by Spec.Normalized,
// so they fingerprint the same; here only validity is checked.
func (f *specFlags) spec() (campaign.Spec, error) {
	if _, err := experiment.ParseBackend(*f.backend); err != nil {
		return campaign.Spec{}, err
	}
	return campaign.Spec{
		Name:       *f.name,
		Drivers:    splitList(*f.drivers),
		SamplePct:  *f.sample,
		Seed:       *f.seed,
		Shards:     *f.shards,
		StubMode:   *f.stub,
		Permissive: *f.permissive,
		Backend:    *f.backend,
		Scenarios:  splitList(*f.scenarios),
	}, nil
}

// splitList splits a comma-separated flag value, dropping blank items.
func splitList(s string) []string {
	var out []string
	for _, x := range strings.Split(s, ",") {
		if x = strings.TrimSpace(x); x != "" {
			out = append(out, x)
		}
	}
	return out
}

// campaignRun executes (or resumes) a campaign against a JSONL store.
// Resume takes its spec from the store, so it only accepts execution
// flags; the run-shaping flags are rejected rather than silently
// ignored.
func campaignRun(args []string, resume bool) error {
	verb := "run"
	if resume {
		verb = "resume"
	}
	fs := flag.NewFlagSet("driverlab campaign "+verb, flag.ContinueOnError)
	store := fs.String("store", "", "JSONL result store (required)")
	shard := fs.String("shard", "", "comma-separated shard indices to run (default: all)")
	workers := fs.Int("workers", 0, "boot worker count (default: GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress live progress")
	statusAddr := fs.String("status-addr", "",
		"serve /metrics (Prometheus), /status (JSON) and /debug/pprof on this address while the campaign runs (e.g. :9100)")
	var sf *specFlags
	if !resume {
		sf = addSpecFlags(fs, 1, "shard count the work-list partitions into",
			"comma-separated hardware scenario cells to cross with the driver list "+
				"(see `driverlab scenarios`; e.g. pristine,flaky-bus:5,timing — default pristine only)")
	}
	// The boot deadline is fingerprint-excluded, so both run and resume
	// accept it: a store started under one deadline may finish under
	// another.
	bootTimeout := fs.Duration("boot-timeout", 0,
		"per-boot wall-clock deadline behind the step watchdog (0: the 30s default)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("campaign run: -store is required")
	}
	shardCount := 1
	if sf != nil {
		shardCount = *sf.shards
	}
	if err := checkExecFlags(*workers, shardCount, *bootTimeout); err != nil {
		return fmt.Errorf("campaign %s: %w", verb, err)
	}
	shardSel, err := parseShards(*shard)
	if err != nil {
		return err
	}

	st, err := campaign.OpenFile(*store)
	if err != nil {
		return err
	}
	defer st.Close()

	var spec campaign.Spec
	if resume {
		// Resume takes the spec from the store itself; only the
		// fingerprint-excluded boot deadline may be overridden.
		prior, ok := storedSpec(st)
		if !ok {
			return fmt.Errorf("campaign resume: %s holds no spec record", *store)
		}
		spec = prior
		if *bootTimeout > 0 {
			spec.BootTimeoutMS = int(bootTimeout.Milliseconds())
		}
		fmt.Fprintf(os.Stderr, "campaign: resuming %q from %s\n", spec.Name, *store)
	} else {
		// Run builds the spec from flags; on an existing store the engine
		// rejects it if the fingerprint differs from the stored spec.
		if spec, err = sf.spec(); err != nil {
			return err
		}
		if *bootTimeout > 0 {
			spec.BootTimeoutMS = int(bootTimeout.Milliseconds())
		}
	}

	// Live status: the tracker is always on (it feeds the progress
	// line); the metric collector and the HTTP endpoint only with
	// -status-addr.
	tracker := campaign.NewStatusTracker()
	wl := experiment.NewWorkload()
	var metrics *campaign.Metrics
	if *statusAddr != "" {
		col := obs.New()
		metrics = campaign.NewMetrics(col)
		wl = experiment.NewObservedWorkload(col)
		srv, err := obs.Serve(*statusAddr, col, func() any { return tracker.Snapshot() })
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: observability endpoint at %s (/metrics, /status, /debug/pprof/)\n", srv.URL)
	}

	// Graceful interruption: the first SIGINT/SIGTERM stops feeding
	// tasks (in-flight boots finish and are recorded), the store is
	// flushed, and a resume hint is printed; a second signal kills the
	// process immediately.
	interrupt := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigc:
		case <-finished:
			return
		}
		fmt.Fprintf(os.Stderr, "\ncampaign: interrupted, finishing in-flight boots (again to kill)\n")
		close(interrupt)
		select {
		case <-sigc:
			os.Exit(130)
		case <-finished:
		}
	}()

	opts := campaign.Options{
		Workers:   *workers,
		Shards:    shardSel,
		Metrics:   metrics,
		Status:    tracker,
		Interrupt: interrupt,
	}
	if !*quiet {
		opts.Progress = progressPrinter(tracker)
	}
	sum, err := campaign.Run(spec, wl, st, opts)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if errors.Is(err, campaign.ErrInterrupted) {
		if ferr := st.Flush(); ferr != nil {
			return ferr
		}
		snap := tracker.Snapshot()
		fmt.Fprintf(os.Stderr, "campaign: interrupted — %d/%d selected results recorded and flushed\n",
			snap.Recorded, snap.Total)
		fmt.Fprintf(os.Stderr, "campaign: resume with: driverlab campaign resume -store %s\n", *store)
		return nil
	}
	if err != nil {
		return err
	}
	panics := ""
	if sum.Panics > 0 {
		panics = fmt.Sprintf(", %d harness panics quarantined", sum.Panics)
	}
	fmt.Printf("campaign %q: %d selected, %d already stored, %d booted this run%s\n",
		spec.Normalized().Name, sum.Total, sum.Skipped, sum.Ran, panics)
	if metrics != nil {
		if line := fallbackSummary(metrics.Collector()); line != "" {
			fmt.Println("  " + line)
		}
	}
	for _, line := range campaign.Completion(st.Records()) {
		fmt.Println("  " + line)
	}
	return nil
}

// fallbackSummary reports the incremental-front-end boots of an
// observed run that re-ran the full pipeline, or "" when none did.
func fallbackSummary(col *obs.Collector) string {
	var full float64
	for _, s := range col.Gather() {
		if s.Name == experiment.MetricFullFrontend {
			full += s.Value
		}
	}
	if full == 0 {
		return ""
	}
	return fmt.Sprintf("%.0f boots re-ran the full front end (span-unsafe mutations)", full)
}

// progressPrinter returns a rate-limited live progress callback. The
// line is rendered from the same campaign.Snapshot the /status
// endpoint serves, clamped to the terminal width.
func progressPrinter(tracker *campaign.StatusTracker) func(done, total int) {
	width := termWidth()
	var last time.Time
	return func(done, total int) {
		now := time.Now()
		if done < total && now.Sub(last) < 200*time.Millisecond {
			return
		}
		last = now
		fmt.Fprintf(os.Stderr, "\r%s\x1b[K", progressLine(tracker.Snapshot(), width))
	}
}

// campaignMerge folds shard stores into one.
func campaignMerge(args []string) error {
	fs := flag.NewFlagSet("driverlab campaign merge", flag.ContinueOnError)
	out := fs.String("out", "", "merged JSONL store to write (required)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	ins := fs.Args()
	if *out == "" || len(ins) == 0 {
		return fmt.Errorf("campaign merge: want -out merged.jsonl plus input stores")
	}
	dst, err := campaign.OpenFile(*out)
	if err != nil {
		return err
	}
	defer dst.Close()
	var sources []campaign.Store
	for _, path := range ins {
		src, err := campaign.OpenFile(path)
		if err != nil {
			return err
		}
		defer src.Close()
		sources = append(sources, src)
	}
	if err := campaign.Merge(dst, sources...); err != nil {
		return err
	}
	fmt.Printf("merged %d stores into %s\n", len(ins), *out)
	for _, line := range campaign.Completion(dst.Records()) {
		fmt.Println("  " + line)
	}
	return nil
}

// campaignReport re-derives the paper's tables from a store.
func campaignReport(args []string) error {
	fs := flag.NewFlagSet("driverlab campaign report", flag.ContinueOnError)
	store := fs.String("store", "", "JSONL result store (required)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("campaign report: -store is required")
	}
	st, err := campaign.OpenFile(*store)
	if err != nil {
		return err
	}
	defer st.Close()
	spec, ok := storedSpec(st)
	if !ok {
		return fmt.Errorf("campaign report: %s holds no spec record", *store)
	}
	tables, order, err := campaign.Aggregate(st.Records())
	if err != nil {
		return err
	}
	for _, label := range order {
		t := tables[label]
		status := "complete"
		if !t.Complete() {
			status = fmt.Sprintf("partial: %d/%d booted", t.Results, t.Selected)
		}
		cell := t.Driver
		if t.Scenario != "" {
			cell = fmt.Sprintf("%s under scenario %s", t.Driver, t.Scenario)
		}
		caption := fmt.Sprintf("Campaign %q: mutations on %s (%d%% sample, seed %d; %s)",
			spec.Name, cell, spec.SamplePct, spec.Seed, status)
		fmt.Println(experiment.FormatDriverTable(t, caption))
	}
	// Cross-cell summary: how each scenario cell moved the headline
	// detection metrics against the same driver's pristine cell.
	var deltas []string
	for _, label := range order {
		t := tables[label]
		if t.Scenario == "" {
			continue
		}
		base, ok := tables[t.Driver]
		if !ok {
			continue // no pristine cell to compare against
		}
		bd, sd := experiment.DetectedPct(base), experiment.DetectedPct(t)
		bs, ss := experiment.SilentPct(base), experiment.SilentPct(t)
		deltas = append(deltas, fmt.Sprintf(
			"%-28s detected %+5.1f%% (%.1f%% vs pristine %.1f%%), silent %+5.1f%% (%.1f%% vs %.1f%%)",
			label, sd-bd, sd, bd, ss-bs, ss, bs))
	}
	if len(deltas) > 0 {
		fmt.Println("Scenario detection deltas (vs the same driver's pristine cell):")
		for _, d := range deltas {
			fmt.Println("  " + d)
		}
		fmt.Println()
	}
	return nil
}
