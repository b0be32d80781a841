package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// layers are the CPU-share buckets of the traced run, named after the
// repository's modules. Every profile sample lands in exactly one.
var layers = []string{
	"frontend", "ccompile", "devil", "hw", "kernel",
	"campaign", "experiment", "mutation", "obs", "bench", "runtime", "other",
}

// frameLayer returns the layer of a pprof function name such as
// "repro/internal/devil/codegen.(*Stubs).getVar", and false for frames
// outside this repository (the runtime and the standard library).
// Frames of the benchmark itself are package main.
func frameLayer(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "main" {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		if pkg == "repro" || strings.HasPrefix(pkg, "repro/") {
			return "other", true
		}
		return "", false
	}
	top, sub, _ := strings.Cut(rest, "/")
	switch top {
	case "cdriver":
		switch sub {
		case "ccompile", "ccov", "cinterp":
			return "ccompile", true
		}
		return "frontend", true // clexer, cparser, ccheck, cincr, cast, ctypes, ctoken
	case "devil", "hw", "kernel", "campaign", "experiment", "mutation", "obs":
		return top, true
	}
	return "other", true // drivers, specs
}

// foldTraces reads `go tool pprof -traces` output and charges each
// sample to the innermost frame from this repository: time in a map
// lookup or an allocation counts against the code that asked for it. A
// sample with no repository frame (GC workers, the scheduler) is
// "runtime". Folding flat by package instead would put most of the Devil
// stubs' time in Go's map hashing.
func foldTraces(r io.Reader) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var (
		value   time.Duration
		inTrace bool
		charged bool
	)
	finish := func() {
		if inTrace && !charged {
			out["runtime"] += value
		}
		inTrace, charged = false, false
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			finish()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines (File:, Type:, Duration:, ...)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// The first line of a trace is "<value> <leaf frame>"; the rest are
		// callers, innermost first. Inlined frames carry an "(inline)" tag.
		if !inTrace {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: no frame in %q", line)
			}
			value, inTrace = d, true
			fields = fields[1:]
		}
		if charged {
			continue
		}
		if l, ok := frameLayer(fields[0]); ok {
			out[l] += value
			charged = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	finish()
	return out, nil
}
