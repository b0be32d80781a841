package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/fleet"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// runServe starts a fleet coordinator: it loads (or creates) the
// canonical JSONL store, expands the campaign into shard leases, and
// serves them to `driverlab worker` processes until every task is
// recorded. The coordinator boots nothing itself.
func runServe(args []string) error {
	fs := flag.NewFlagSet("driverlab serve", flag.ContinueOnError)
	store := fs.String("store", "", "canonical JSONL result store (required)")
	addr := fs.String("addr", "127.0.0.1:9309", "address to serve the fleet protocol on (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound fleet address to this file (for scripts using -addr :0)")
	leaseTTL := fs.Duration("lease-ttl", fleet.DefaultLeaseTTL,
		"how long a shard lease survives without a worker heartbeat before it is re-leased")
	resume := fs.Bool("resume", false, "take the spec from the store instead of flags (a restarted coordinator)")
	quiet := fs.Bool("quiet", false, "suppress live progress")
	statusAddr := fs.String("status-addr", "",
		"serve /metrics (Prometheus), /status (JSON) and /debug/pprof on this address while the fleet runs (e.g. :9100)")
	sf := addSpecFlags(fs, 8, "lease granularity: shard count the work-list partitions into "+
		"(should comfortably exceed the worker count)",
		"comma-separated hardware scenario cells to cross with the driver list (see `driverlab scenarios`)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("serve: -store is required")
	}
	if err := checkExecFlags(0, *sf.shards, 0); err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	st, err := campaign.OpenFile(*store)
	if err != nil {
		return err
	}
	defer st.Close()

	var spec campaign.Spec
	if *resume {
		prior, ok := storedSpec(st)
		if !ok {
			return fmt.Errorf("serve -resume: %s holds no spec record", *store)
		}
		spec = prior
		// The shard count is fingerprint-excluded, so a restarted
		// coordinator may repartition the remaining work: an explicit
		// -shards, its default value included, overrides the store's.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				spec.Shards = *sf.shards
			}
		})
		fmt.Fprintf(os.Stderr, "serve: resuming %q from %s\n", spec.Name, *store)
	} else {
		if spec, err = sf.spec(); err != nil {
			return err
		}
	}

	// Live status: the tracker always runs (it feeds the progress line);
	// the metric collector and HTTP endpoint only with -status-addr. The
	// snapshot served there carries the coordinator's fleet counters, so
	// `campaign status <addr>` is fleet-aware.
	tracker := campaign.NewStatusTracker()
	var col *obs.Collector
	if *statusAddr != "" {
		col = obs.New()
	}
	co, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Spec:      spec,
		Workload:  experiment.NewWorkload(),
		Store:     st,
		LeaseTTL:  *leaseTTL,
		Status:    tracker,
		Collector: col,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	if *statusAddr != "" {
		srv, err := obs.Serve(*statusAddr, col, func() any {
			s := tracker.Snapshot()
			fstat := co.FleetStatus()
			s.Fleet = &fstat
			return s
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serve: observability endpoint at %s (/metrics, /status, /debug/pprof/)\n", srv.URL)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: listen on %s: %w", *addr, err)
	}
	co.Start(ln)
	defer co.Close()
	fmt.Fprintf(os.Stderr, "serve: coordinating %q on %s (%d shards); join with: driverlab worker -connect %s\n",
		spec.Normalized().Name, co.Addr(), spec.Normalized().Shards, co.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(co.Addr()+"\n"), 0o644); err != nil {
			return err
		}
	}

	// The first SIGINT/SIGTERM shuts the fleet down gracefully (the
	// store is flushed and consistent; a restarted coordinator leases
	// only the remaining tasks); a second kills the process.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "\nserve: interrupted, shutting the fleet down (again to kill)\n")
		go co.Close()
		<-sigc
		os.Exit(130)
	}()

	stopProgress := drawProgress(tracker, !*quiet)
	err = co.Wait()
	stopProgress()
	if errors.Is(err, fleet.ErrClosed) {
		if ferr := st.Flush(); ferr != nil {
			return ferr
		}
		snap := tracker.Snapshot()
		fmt.Fprintf(os.Stderr, "serve: interrupted — %d/%d results stored and flushed\n", snap.Recorded, snap.Total)
		fmt.Fprintf(os.Stderr, "serve: restart with: driverlab serve -store %s -resume\n", *store)
		return nil
	}
	if err != nil {
		return err
	}
	// Give connected workers their drain response before the listener
	// goes away, so they exit cleanly rather than on a torn connection.
	co.DrainWorkers(5 * time.Second)
	snap := tracker.Snapshot()
	fmt.Printf("fleet campaign %q complete: %d results (%d already stored), %d leases across the fleet\n",
		spec.Normalized().Name, snap.Recorded, snap.Skipped, co.FleetStatus().Leases)
	for _, line := range campaign.Completion(st.Records()) {
		fmt.Println("  " + line)
	}
	return nil
}

// runWorker joins a fleet worker to a coordinator: it leases shards,
// boots them on the unmodified campaign engine, and streams the records
// back until the campaign drains.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("driverlab worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "coordinator fleet address to join (required; see `driverlab serve`)")
	name := fs.String("name", "", "worker name in coordinator logs and metrics (default: host:pid)")
	workers := fs.Int("workers", 0, "boot worker count inside this process (default: GOMAXPROCS)")
	fingerprint := fs.String("fingerprint", "",
		"spec fingerprint to insist on; the coordinator rejects the handshake if it serves a different campaign")
	quiet := fs.Bool("quiet", false, "suppress per-lease progress")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("worker: -connect is required (the address `driverlab serve` printed)")
	}
	if err := checkExecFlags(*workers, 1, 0); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	// The first SIGINT/SIGTERM drains in-flight boots and leaves the
	// lease to the coordinator's re-lease machinery; a second kills.
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
		fmt.Fprintf(os.Stderr, "\nworker: interrupted, finishing in-flight boots (again to kill)\n")
		close(interrupt)
		select {
		case <-sigc:
			os.Exit(130)
		case <-finished:
		}
	}()

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	if *quiet {
		logf = nil
	}
	sum, err := fleet.RunWorker(*connect, experiment.NewWorkload(), fleet.WorkerOptions{
		Name:        *name,
		Workers:     *workers,
		Fingerprint: *fingerprint,
		Interrupt:   interrupt,
		Logf:        logf,
	})
	if errors.Is(err, campaign.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "worker: interrupted; the coordinator re-leases any unfinished shard\n")
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("worker %q: %d shards completed, %d records streamed\n", *name, sum.Shards, sum.Records)
	return nil
}
