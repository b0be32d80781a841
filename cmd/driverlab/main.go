// Command driverlab regenerates every table and figure of the paper's
// evaluation:
//
//	driverlab -table 1        the reconstructed C operator mutation rules
//	driverlab -table 2        Devil-compiler coverage over the 5 specs
//	driverlab -table 3        mutation outcomes of the C IDE driver
//	driverlab -table 4        mutation outcomes of the CDevil IDE driver
//	driverlab -table 5..8     the extension pairs (busmouse, NE2000,
//	                          Permedia 2, 82371FB bus master), numbered
//	                          from the workload table
//	driverlab -table all      everything (the default)
//	driverlab -figure 1       the two driver architectures side by side
//	driverlab -figure 3       the busmouse specification (round-tripped)
//	driverlab -figure 4       the debug stub of the IDE Drive variable
//	driverlab -ablation       the weak-typing and production-mode ablations
//
// Sampling: -sample selects the percentage of driver mutants booted (the
// paper used 25); -seed makes the selection reproducible. -backend forces
// the hwC execution engine: the closure-compiled hot path (default) or
// the tree-walking reference interpreter.
//
// Campaigns — sharded, resumable, persisted mutation runs — live under
// the campaign subcommand:
//
//	driverlab campaign run    -store c.jsonl -drivers ide_c,ide_devil ...
//	driverlab campaign resume -store c.jsonl
//	driverlab campaign merge  -out merged.jsonl shard0.jsonl shard1.jsonl
//	driverlab campaign report -store c.jsonl
//	driverlab campaign status <addr|store>
//
// With -status-addr a run serves its live telemetry over HTTP —
// Prometheus text at /metrics, a JSON snapshot at /status, pprof under
// /debug/pprof/ — and `campaign status` renders that snapshot, live
// from the endpoint or reconstructed offline from a store. `driverlab
// metrics` lists every metric family the stack can register.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cdriver/ctoken"
	"repro/internal/devil"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/mutation/cmut"
	"repro/internal/specs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "driverlab:", err)
		os.Exit(1)
	}
}

// extensionWorkloads returns the registered non-IDE workloads in
// registration order; table 5+i regenerates pair i.
func extensionWorkloads() []*experiment.WorkloadDesc {
	var exts []*experiment.WorkloadDesc
	for _, d := range experiment.Workloads() {
		if d.Name != "ide" {
			exts = append(exts, d)
		}
	}
	return exts
}

// extensionTableHelp renders the extension-table numbering for help text
// ("5 (busmouse extension), 6 (ne2000 extension), ...").
func extensionTableHelp(exts []*experiment.WorkloadDesc) string {
	parts := make([]string, len(exts))
	for i, d := range exts {
		parts[i] = fmt.Sprintf("%d (%s extension)", 5+i, d.Name)
	}
	return strings.Join(parts, ", ")
}

// usageText is the top-level -h banner: unlike the default flag dump it
// enumerates the subcommands, the embedded drivers and the -backend
// values, so the CLI surface is discoverable without reading the source.
func usageText() string {
	exts := extensionWorkloads()
	return fmt.Sprintf(`driverlab regenerates the paper's tables and figures and runs
mutation campaigns over the embedded driver corpus.

Usage:
  driverlab [flags]                      tables 1-%d, figures, ablations
  driverlab campaign <verb> [flags]      sharded, resumable, persisted campaigns
                                         verbs: run, resume, merge, report, status
  driverlab serve [flags]                coordinate a campaign fleet: lease the
                                         work-list's shards to worker processes
                                         over TCP, append their records to the
                                         canonical -store
  driverlab worker -connect <addr>       join a fleet: lease shards from a
                                         coordinator, boot them, stream the
                                         records back
  driverlab metrics                      list every metric family the
                                         instrumented stack can register
  driverlab scenarios                    list the hardware scenarios a
                                         campaign matrix can cross its
                                         drivers with (-names: bare list)

Observability: campaign run -status-addr :PORT (and serve -status-addr)
serves Prometheus /metrics, a JSON /status snapshot and /debug/pprof
while the campaign runs; campaign status <addr|store> renders the
snapshot live from that endpoint or offline from a JSONL store. A fleet
coordinator's snapshot adds per-worker throughput and lease counters.

Drivers: %s.
Extension tables: %s.
Backends (-backend): block (closure compilation plus basic-block fusion
and batched port I/O, the default) or interp (the tree-walking
reference oracle). Both charge the watchdog per basic block, so step
counts and every other observable are identical across backends.
Front end: each campaign boot re-runs the front end only on the
mutated declaration; a mutant the span analysis cannot prove safe falls
back to re-lexing, re-parsing, re-checking and re-compiling the whole
driver, with identical results.
Scenarios (campaign run -scenario): cross the driver list with named
hardware-degradation cells (pristine, flaky-bus[:pct], timing[:ticks]);
fault injection is seeded per task, so matrix cells stay deterministic
across shards, resumes and backends.

Flags:
`, 4+len(exts), strings.Join(drivers.Names(), ", "), extensionTableHelp(exts))
}

// parseFlags wraps fs.Parse, treating -h/-help as success: the usage was
// printed, not an error, so the process must exit 0.
func parseFlags(fs *flag.FlagSet, args []string) (help bool, err error) {
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "campaign" {
		return runCampaign(args[1:])
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:])
	}
	if len(args) > 0 && args[0] == "worker" {
		return runWorker(args[1:])
	}
	if len(args) > 0 && args[0] == "metrics" {
		return runMetrics(args[1:])
	}
	if len(args) > 0 && args[0] == "scenarios" {
		return runScenarios(args[1:])
	}
	exts := extensionWorkloads()
	fs := flag.NewFlagSet("driverlab", flag.ContinueOnError)
	table := fs.String("table", "", "table to regenerate: 1-4, "+extensionTableHelp(exts)+", or all")
	figure := fs.String("figure", "", "figure to regenerate: 1, 3 or 4")
	ablation := fs.Bool("ablation", false, "run the design-choice ablations")
	sample := fs.Int("sample", 25, "percentage of driver mutants to boot (paper: 25)")
	seed := fs.Uint64("seed", 2001, "sampling seed")
	backendFlag := fs.String("backend", "", "hwC execution backend: block (default) or interp")
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageText())
		fs.PrintDefaults()
	}
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	// A leftover positional argument is a mistyped subcommand,
	// not a request for every table.
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown command %q (want campaign, serve, worker, metrics or scenarios)", fs.Arg(0))
	}
	if *table == "" && *figure == "" && !*ablation {
		*table = "all"
	}
	valid := map[string]bool{"": true, "all": true, "1": true, "2": true, "3": true, "4": true}
	for i := range exts {
		valid[strconv.Itoa(5+i)] = true
	}
	if !valid[*table] {
		return fmt.Errorf("unknown table %q (want 1-%d or all)", *table, 4+len(exts))
	}
	if _, err := experiment.ParseBackend(*backendFlag); err != nil {
		return err
	}
	spec := campaign.Spec{SamplePct: *sample, Seed: *seed, Backend: *backendFlag}

	switch *figure {
	case "":
	case "1":
		printFigure1()
	case "3":
		return printFigure3()
	case "4":
		return printFigure4()
	default:
		return fmt.Errorf("unknown figure %q", *figure)
	}

	want := func(t string) bool { return *table == "all" || *table == t }
	if want("1") {
		printTable1()
	}
	if want("2") {
		rows, err := experiment.Table2()
		if err != nil {
			return err
		}
		fmt.Println(experiment.FormatTable2(rows))
	}
	// Tables 3, 4 and the extension tables (one per non-IDE workload, in
	// table order) render the cells of one campaign over every driver
	// they show.
	type shownTable struct{ driver, caption string }
	var shown []shownTable
	if want("3") {
		shown = append(shown, shownTable{"ide_c",
			fmt.Sprintf("Table 3: Mutations on C code (%d%% sample, seed %d)", *sample, *seed)})
	}
	if want("4") {
		shown = append(shown, shownTable{"ide_devil",
			fmt.Sprintf("Table 4: Mutations on CDevil code (%d%% sample, seed %d)", *sample, *seed)})
	}
	for i, ext := range exts {
		if !want(strconv.Itoa(5 + i)) {
			continue
		}
		for _, drv := range ext.Drivers {
			shown = append(shown, shownTable{drv,
				fmt.Sprintf("Extension (paper §6 future work): mutations on %s (%d%% sample, seed %d)",
					drv, *sample, *seed)})
		}
	}
	if len(shown) > 0 {
		tspec := spec
		for _, t := range shown {
			tspec.Drivers = append(tspec.Drivers, t.driver)
		}
		tables, err := experiment.RunTables(tspec, 0)
		if err != nil {
			return err
		}
		for _, t := range shown {
			fmt.Println(experiment.FormatDriverTable(tables[t.driver], t.caption))
		}
	}

	if *ablation {
		return runAblations(spec)
	}
	return nil
}

// printTable1 renders the reconstructed operator mutation classes.
func printTable1() {
	fmt.Println("Table 1: Mutation rules for C operators (reconstruction; see DESIGN.md §6)")
	kinds := make([]ctoken.Kind, 0, len(cmut.OperatorClasses))
	for k := range cmut.OperatorClasses {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		repls := cmut.OperatorClasses[k]
		names := make([]string, len(repls))
		for i, r := range repls {
			names[i] = r.String()
		}
		fmt.Printf("  %-4s -> %s\n", k, strings.Join(names, ", "))
	}
	fmt.Println()
}

// printFigure1 sketches the two development models of Figure 1.
func printFigure1() {
	fmt.Print(`Figure 1: Developing drivers with Devil

  Existing driver                      Devil-based driver
  ---------------                      ------------------
  application                          application
      |                                    |
  system (kernel)                      system (kernel)
      |                                    |
  driver ----------------------+      driver (CDevil glue)
   #define MSE_DATA_PORT 0x23c |          buttons = get_buttons();
   outb(MSE_READ_Y_HIGH,       |          dy = get_dy();
        MSE_CONTROL_PORT);     |           |
   dy |= (inb(MSE_DATA_PORT)   |      generated stubs  <- devilc <- spec.dil
        & 0xf) << 4;           |           |
      |                        |       masking/shifting/pre-actions
  device <---------------------+           |
                                       device

`)
}

// printFigure3 round-trips the busmouse specification through the parser.
func printFigure3() error {
	s, err := specs.Load("busmouse")
	if err != nil {
		return err
	}
	spec, err := devil.Compile(s.Filename, s.Source)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 3: Specification of the Logitech busmouse (%s, %d registers, %d variables)\n\n",
		spec.AST.Name, len(spec.AST.Registers()), len(spec.AST.Variables()))
	fmt.Println(s.Source)
	return nil
}

// printFigure4 emits the debug stub for the IDE Drive variable.
func printFigure4() error {
	s, err := specs.Load("ide")
	if err != nil {
		return err
	}
	spec, err := devil.Compile(s.Filename, s.Source)
	if err != nil {
		return err
	}
	text, err := spec.EmitCVariable(devil.Debug, "Drive")
	if err != nil {
		return err
	}
	fmt.Println("Figure 4: Debug stub for the IDE Drive variable")
	fmt.Println()
	fmt.Print(text)
	return nil
}

// runAblations quantifies the two design choices DESIGN.md calls out,
// each as a campaign over the CDevil IDE driver.
func runAblations(spec campaign.Spec) error {
	spec.Drivers = []string{"ide_devil"}
	fmt.Println("Ablation A: CDevil with the strict checker downgraded to plain C rules")
	weak := spec
	weak.Permissive = true
	tables, err := experiment.RunTables(weak, 0)
	if err != nil {
		return err
	}
	fmt.Println(experiment.FormatDriverTable(tables["ide_devil"], "  (stubs still active at run time)"))

	fmt.Println("Ablation B: CDevil with production-mode stubs (no run-time assertions)")
	prod := spec
	prod.StubMode = "production"
	if tables, err = experiment.RunTables(prod, 0); err != nil {
		return err
	}
	fmt.Println(experiment.FormatDriverTable(tables["ide_devil"], "  (strict typing still active at compile time)"))
	return nil
}
