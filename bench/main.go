// Command bench is the benchmark of record for driverlab's mutation
// campaigns: it boots whole campaigns of mutants through the public
// campaign and experiment APIs, times each layer from outside, and
// checks every record against golden records the interp oracle agrees
// with.
//
//	bash bench/run.sh -workload corpus [-seed 2001] [-seconds 14] [-trace 1] [-out DIR]
//	bash bench/run.sh -golden
//	bash bench/run.sh -compare A/ B/
//
// bench is a module of its own; run.sh builds it and runs it from the
// repository root. A run prints every metric as
// "workload metric value unit", then one JSON result line, writes
// report.json (and, traced, trace.jsonl and cpu.pprof) to -out, and
// exits non-zero if any record differs from the golden records. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: corpus, devil, faults or short")
	seed := fs.Uint64("seed", 2001, "seed of the traced run's replay sample")
	seconds := fs.Float64("seconds", 14, "each measured phase starts passes of the workload until this many seconds have passed")
	var trace bool
	fs.Func("trace", "1 for the traced run (per-layer metrics), 0 for the end-to-end run", func(s string) error {
		v, err := strconv.ParseBool(s)
		trace = v
		return err
	})
	out := fs.String("out", "", "directory for report.json and the trace (default $TMPDIR/driverlab-bench/<workload>)")
	gen := fs.Bool("golden", false, "regenerate "+goldenPath+" on the interp and block backends")
	compare := fs.Bool("compare", false, "compare two directories of reports: -compare A/ B/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *gen:
		if _, err := os.Stat(filepath.Dir(goldenPath)); err != nil {
			fmt.Fprintln(stderr, "bench: -golden writes", goldenPath, "and must run from the repository root")
			return 2
		}
		if err := generateGolden(goldenPath, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report directories")
			return 2
		}
		ok, err := compareDirs(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := &config{wl: wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: trace, out: *out}
	if cfg.out == "" {
		cfg.out = filepath.Join(os.TempDir(), "driverlab-bench", wl.name)
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d boots failed or differ from the golden records\n",
			res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// metricValue is one metric in a result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the run's full record in -out: every metric it measured.
type report struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Trace       bool    `json:"trace"`
	Seconds     float64 `json:"seconds"`
	Workers     int     `json:"workers"`
	Passes      int     `json:"passes"`
	BootSamples int     `json:"boot_samples"`
	result
}

// runWorkload runs one workload: setup, the untraced phase, and with
// cfg.trace the traced phase. It prints the metrics and the result line
// and writes the report.
func runWorkload(cfg *config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	specs := cfg.wl.specs
	var err error
	if cfg.golden, err = loadGolden(goldenCSV, cellsOf(specs)); err != nil {
		return nil, err
	}

	setup, wl, err := measureSetup(specs)
	if err != nil {
		return nil, err
	}
	p, err := runPhase(cfg, wl, newRecorder(false))
	if err != nil {
		return nil, err
	}
	e2e, err := endToEndMetrics(setup, p)
	if err != nil {
		return nil, err
	}
	rep := report{Workload: cfg.wl.name, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.seconds.Seconds(), Workers: cfg.wl.workers, Passes: p.passes,
		BootSamples: len(p.rec.durs)}
	all := make(map[string]metricValue)  // the report keeps every metric
	line := make(map[string]metricValue) // the result line only BENCHMARK.json's
	emit := func(defs []metricDef, vals map[string]float64, inLine bool) {
		for _, d := range defs {
			v := metricValue{vals[d.name], d.unit}
			fmt.Fprintf(stdout, "%s %s %s %s\n", cfg.wl.name, d.name,
				strconv.FormatFloat(v.Value, 'g', -1, 64), d.unit)
			all[d.name] = v
			if inLine {
				line[d.name] = v
			}
		}
	}
	fmt.Fprintf(stdout, "%s boot_samples %d boots\n", cfg.wl.name, len(p.rec.durs))
	emit(endToEnd, e2e, !cfg.trace)
	emit(unlisted, e2e, false)
	attempted, failed := p.planned, p.failed()

	if cfg.trace {
		t, err := runTraced(cfg)
		if err != nil {
			return nil, err
		}
		emit(perLayer, perLayerMetrics(t, e2e["boots_per_s"]), true)
		attempted += t.phase.planned + t.replay.Boots
		failed += t.phase.failed() + t.replay.Mismatches
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: line}
	rep.result = res
	rep.Metrics = all
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "report.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	data, err = json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return &res, nil
}
