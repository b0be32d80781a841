package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// config is one invocation's settings.
type config struct {
	wl      workload
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string
	golden  golden
}

// phase is what one measured phase (untraced or traced) did.
type phase struct {
	rec     *recorder
	passes  int
	planned int // tasks the campaigns planned
	check   checkResult
	wall    time.Duration // summed campaign.Run wall time
	mallocs uint64
	bytes   uint64
	steps   int64
	compile int // records detected at compile time
	// last holds the final pass's records, per spec, for the replay.
	last [][]campaign.Record
}

// failed counts the phase's boots that panicked, differ from the golden
// records, or never got a record.
func (p *phase) failed() int {
	return p.check.Panics + p.check.Wrong + p.planned - p.check.Results
}

// measureSetup times a fresh workload's expansion of every spec: driver
// enumeration, span analysis, dedup keys and sampling. It repeats until
// it has at least five samples and a second of them, and
// returns the median and the last workload, expanded and ready to boot.
// The process-wide compiled-specification cache fills on the first
// repetition, so the median leaves that one-time cost out.
func measureSetup(specs []campaign.Spec) (time.Duration, campaign.Workload, error) {
	var durs []float64
	var wl campaign.Workload
	start := time.Now()
	for len(durs) < 5 || time.Since(start) < time.Second {
		t0 := time.Now()
		wl = experiment.NewWorkload()
		for _, s := range specs {
			if _, _, err := campaign.ExpandPlan(s, wl); err != nil {
				return 0, nil, err
			}
		}
		durs = append(durs, float64(time.Since(t0)))
	}
	return time.Duration(median(durs)), wl, nil
}

// runPhase runs passes of the workload's campaigns, starting another
// until cfg.seconds have passed; the first pass always runs, and a pass
// once started is finished, so every phase boots whole passes. Each
// campaign's records are checked against the golden set.
func runPhase(cfg *config, wl campaign.Workload, rec *recorder) (*phase, error) {
	specs := cfg.wl.specs
	p := &phase{rec: rec, last: make([][]campaign.Record, len(specs))}
	twl := timedWorkload{wl, rec}
	for start := time.Now(); p.passes == 0 || time.Since(start) < cfg.seconds; p.passes++ {
		for i, spec := range specs {
			// Drop the previous pass's records first, so the peak RSS does
			// not depend on how many passes the phase makes.
			p.last[i] = nil
			recs, err := runCampaign(cfg, p, twl, spec, filepath.Join(cfg.out, fmt.Sprintf("store-%d.jsonl", i)))
			if err != nil {
				return nil, fmt.Errorf("campaign %s: %w", spec.Name, err)
			}
			p.last[i] = recs
		}
	}
	return p, nil
}

// runCampaign runs one campaign into a fresh FileStore at path, adds its
// counts to p, and returns its records.
func runCampaign(cfg *config, p *phase, wl timedWorkload, spec campaign.Spec, path string) ([]campaign.Record, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	fs, err := campaign.OpenFile(path)
	if err != nil {
		return nil, err
	}
	store := newTimedStore(fs, p.rec)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cs := p.rec.beginCampaign()
	t0 := time.Now()
	sum, runErr := campaign.Run(spec, wl, store, campaign.Options{Workers: cfg.wl.workers})
	p.wall += time.Since(t0)
	p.rec.endCampaign(cs)
	runtime.ReadMemStats(&m1)
	if err := errors.Join(runErr, store.Close()); err != nil {
		return nil, err
	}
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.bytes += m1.TotalAlloc - m0.TotalAlloc

	recs := fs.Records()
	c := cfg.golden.check(stubName(spec), recs)
	p.planned += sum.Total
	p.check.Results += c.Results
	p.check.Wrong += c.Wrong
	p.check.Panics += c.Panics
	for _, r := range recs {
		if r.Kind == campaign.KindResult {
			p.steps += r.Steps
			if r.Row == experiment.RowCompile {
				p.compile++
			}
		}
	}
	return recs, os.Remove(path)
}

// endToEndMetrics computes the untraced phase's metrics.
func endToEndMetrics(setup time.Duration, p *phase) (map[string]float64, error) {
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	boots := float64(p.check.Results)
	durs := slices.Sorted(slices.Values(p.rec.durs))
	return map[string]float64{
		"boots_per_s":     boots / p.wall.Seconds(),
		"setup_s":         setup.Seconds(),
		"boot_p50_us":     percentile(durs, 0.50) / 1e3,
		"boot_p99_us":     percentile(durs, 0.99) / 1e3,
		"allocs_per_boot": ratio(float64(p.mallocs), boots),
		"bytes_per_boot":  ratio(float64(p.bytes), boots),
		"peak_rss_mb":     rss,
		"failed_frac":     ratio(float64(p.check.Panics), float64(p.planned)),
		"wrong_frac":      ratio(float64(p.check.Wrong+p.planned-p.check.Results), float64(p.planned)),
	}, nil
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// traced is what the traced phase measured.
type traced struct {
	phase  *phase
	col    *obs.Collector
	cpu    time.Duration
	layers map[string]time.Duration
	replay replayStats
}

// runTraced runs the traced phase: an observed workload, every engine
// call recorded as a span, a CPU profile folded by layer, and the
// work-count replay of a sample of the last pass.
func runTraced(cfg *config) (*traced, error) {
	col := obs.New()
	rec := newRecorder(true)
	wl := experiment.NewObservedWorkload(col)
	specs := cfg.wl.specs
	for _, s := range specs {
		if _, _, err := campaign.ExpandPlan(s, timedWorkload{wl, rec}); err != nil {
			return nil, err
		}
	}
	profPath := filepath.Join(cfg.out, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	cpu0, err0 := cpuTime()
	p, err := runPhase(cfg, wl, rec)
	cpu1, err1 := cpuTime()
	pprof.StopCPUProfile()
	if err := errors.Join(err0, err, err1, f.Close()); err != nil {
		return nil, err
	}
	t := &traced{phase: p, col: col, cpu: cpu1 - cpu0}
	if t.layers, err = foldProfile(profPath); err != nil {
		return nil, err
	}
	rp := newReplayer()
	for i, s := range specs {
		if err := rp.replay(s, p.last[i], cfg.seed); err != nil {
			return nil, err
		}
	}
	t.replay = rp.stats
	return t, rec.writeSpans(filepath.Join(cfg.out, "trace.jsonl"))
}

// foldProfile folds a CPU profile by layer through `go tool pprof`.
func foldProfile(path string) (map[string]time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}

// perLayerMetrics computes the traced phase's metrics; untracedRate is
// the untraced phase's boots/s, the reference for the tracing overhead.
func perLayerMetrics(t *traced, untracedRate float64) map[string]float64 {
	p := t.phase
	boots := float64(p.check.Results)
	m := make(map[string]float64)

	phases := make(map[string]float64) // seconds
	counters := make(map[string]float64)
	for _, s := range t.col.Gather() {
		if s.Name == experiment.MetricBootPhase {
			phases[s.Label("phase")] += s.Sum
		} else {
			counters[s.Name] += s.Value
		}
	}
	for _, ph := range experiment.BootPhases {
		m["phase."+ph+"_us"] = ratio(phases[ph]*1e6, boots)
	}

	var total time.Duration
	for _, d := range t.layers {
		total += d
	}
	for _, l := range layers {
		share := ratio(float64(t.layers[l]), float64(total))
		m["cpu."+l+"_share"] = share
		m["cpu."+l+"_us_per_boot"] = ratio(share*t.cpu.Seconds()*1e6, boots)
	}

	rp := t.replay
	m["work.ns_per_step"] = ratio(phases[experiment.PhaseExecute]*1e9, float64(p.steps))
	m["work.steps_per_boot"] = ratio(float64(p.steps), boots)
	m["work.compile_detected_frac"] = ratio(float64(p.compile), boots)
	m["work.port_accesses_per_boot"] = ratio(float64(rp.Accesses), float64(rp.Boots))
	m["work.bus_faults_per_boot"] = ratio(float64(rp.BusFaults), float64(rp.Boots))
	m["work.injected_faults_per_boot"] = ratio(float64(rp.Injected), float64(rp.Boots))

	eng := p.rec.engineStats()
	m["engine.busy_frac"] = eng.busyFrac
	m["engine.overhead_us_per_boot"] = eng.overheadPerBoot / 1e3
	m["store.append_us"] = eng.appendMean / 1e3
	m["store.flush_us"] = ratio(float64(p.rec.flushNs.Load())/1e3, float64(p.rec.flushes.Load()))

	m["exec.snapshot_hit_frac"] = ratio(counters[experiment.MetricSnapshotHits], boots)
	m["exec.full_frontend_frac"] = ratio(counters[experiment.MetricFullFrontend], boots)
	m["exec.interp_fallback_frac"] = ratio(counters[experiment.MetricInterpFallbacks], boots)

	m["trace.overhead_frac"] = ratio(untracedRate, boots/p.wall.Seconds()) - 1
	return m
}
