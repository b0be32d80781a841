package codegen_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/devil"
	"repro/internal/devil/ast"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
	"repro/internal/specs"
)

var update = flag.Bool("update", false, "rewrite testdata/stubtrace.golden")

// recordingDevice backs one port parameter. Reads return a deterministic
// pseudo-random sequence (so enum and set read assertions both pass and
// fail); every access is appended to the shared log with its absolute port.
type recordingDevice struct {
	base hw.Port
	rng  *uint32
	log  *[]string
}

func (d *recordingDevice) Name() string { return "recorder" }

func widthBits(w hw.AccessWidth) int {
	switch w {
	case hw.Width8:
		return 8
	case hw.Width16:
		return 16
	}
	return 32
}

func (d *recordingDevice) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	*d.rng = *d.rng*1103515245 + 12345
	v := *d.rng >> 5
	if bits := widthBits(w); bits < 32 {
		v &= 1<<uint(bits) - 1
	}
	*d.log = append(*d.log, fmt.Sprintf("  R %#x/%d = %#x", uint32(d.base+off), widthBits(w), v))
	return v, nil
}

func (d *recordingDevice) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	*d.log = append(*d.log, fmt.Sprintf("  W %#x/%d = %#x", uint32(d.base+off), widthBits(w), v))
	return nil
}

// stubOps abstracts the two dispatch surfaces: by name through Stubs, and
// through pre-resolved Accessor handles.
type stubOps struct {
	get func(name string) (codegen.Value, error)
	set func(name string, v codegen.Value) error
}

func nameOps(s *devil.Stubs) stubOps {
	return stubOps{get: s.Get, set: s.Set}
}

// accessorOps dispatches through Accessor handles wherever the variable is
// public and the access direction allowed, and falls back to the name path
// for the error cases an Accessor never sees.
func accessorOps(s *devil.Stubs) stubOps {
	return stubOps{
		get: func(name string) (codegen.Value, error) {
			if a, ok := s.Accessor(name); ok && a.Readable() {
				return a.Get()
			}
			return s.Get(name)
		},
		set: func(name string, v codegen.Value) error {
			if a, ok := s.Accessor(name); ok && a.Writable() {
				return a.Set(v)
			}
			return s.Set(name, v)
		},
	}
}

// probeValues lists the values written to a variable: in-range and
// out-of-range integers for its type, every enum constant, and typed values
// of a foreign type and a foreign file.
func probeValues(spec *devil.Spec, stubs *devil.Stubs, sig codegen.VarSig) []codegen.Value {
	vi := spec.Info.Variables[sig.Name]
	w := uint(sig.Width)
	max := int64(1)<<w - 1
	ints := []int64{0, 1, 2, max, max + 1, -1}
	if sig.Kind == codegen.KindSignedInt {
		lo, hi := -(int64(1) << (w - 1)), int64(1)<<(w-1)-1
		ints = append(ints, lo, hi, lo-1, hi+1)
	}
	if vi.Decl.Type.Kind == ast.TypeIntSet {
		ints = append(ints, vi.Decl.Type.Set...)
	}
	var vals []codegen.Value
	for _, x := range ints {
		vals = append(vals, codegen.UntypedInt(x))
	}
	for _, c := range sig.Consts {
		cv, _ := stubs.Const(c)
		vals = append(vals, cv)
	}
	return append(vals,
		codegen.Value{File: spec.Filename, Type: 9999, Val: 1},
		codegen.Value{File: "other.dil", Type: sig.TypeID, Val: 1})
}

// stubTranscript drives every variable of one specification through ops
// and renders the port trace, results, errors and register cache changes.
func stubTranscript(t *testing.T, spec *devil.Spec, mode codegen.Mode, dispatch func(*devil.Stubs) stubOps) []string {
	t.Helper()
	var log []string
	rng := uint32(2001)
	bus := hw.NewBus()
	bases := make(map[string]hw.Port)
	for i, p := range spec.Info.Device.Params {
		base := hw.Port(0x100 * (i + 1))
		bases[p.Name] = base
		dev := &recordingDevice{base: base, rng: &rng, log: &log}
		if err := bus.Map(base, hw.Port(p.RangeHi+1), dev); err != nil {
			t.Fatal(err)
		}
	}
	stubs, err := spec.Generate(devil.Config{Bus: bus, Bases: bases, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	ops := dispatch(stubs)
	prev := codegen.CacheDump(stubs)
	log = append(log, fmt.Sprintf("== %s %s", spec.Filename, mode))
	log = append(log, "  cache "+strings.Join(prev, " "))
	flushCache := func() {
		cur := codegen.CacheDump(stubs)
		var changed []string
		for i := range cur {
			if cur[i] != prev[i] {
				changed = append(changed, cur[i])
			}
		}
		if len(changed) > 0 {
			log = append(log, "  cache "+strings.Join(changed, " "))
		}
		prev = cur
	}
	errText := func(err error) string {
		if err == nil {
			return "ok"
		}
		return err.Error()
	}
	get := func(name string) {
		log = append(log, "get "+name)
		v, err := ops.get(name)
		log = append(log, fmt.Sprintf("  -> %+v %s", v, errText(err)))
		flushCache()
	}
	set := func(name string, v codegen.Value) {
		log = append(log, fmt.Sprintf("set %s %+v", name, v))
		err := ops.set(name, v)
		log = append(log, "  -> "+errText(err))
		flushCache()
	}
	for _, sig := range stubs.Interface().Vars {
		if sig.Writable {
			for _, v := range probeValues(spec, stubs, sig) {
				set(sig.Name, v)
			}
		} else {
			set(sig.Name, codegen.UntypedInt(0))
		}
		get(sig.Name)
		if sig.Readable {
			get(sig.Name)
		}
	}
	for _, name := range spec.Info.VarOrder {
		if spec.Info.Variables[name].Decl.Private {
			get(name)
			set(name, codegen.UntypedInt(0))
		}
	}
	get("no_such_variable")
	set("no_such_variable", codegen.UntypedInt(0))
	stubs.Reset()
	log = append(log, "reset")
	flushCache()
	return log
}

// TestStubTraceGolden pins the port-level behaviour of the generated stubs
// for every embedded specification, and testSpec, in both modes: the bus
// accesses, the returned values, the error texts and the register cache.
// The Stubs and Accessor surfaces must produce the same transcript.
func TestStubTraceGolden(t *testing.T) {
	var all []string
	sources := append(specs.All(), specs.Spec{Filename: "testdev.dil", Source: testSpec})
	for _, sp := range sources {
		spec, err := devil.Compile(sp.Filename, sp.Source)
		if err != nil {
			t.Fatalf("%s: %v", sp.Filename, err)
		}
		for _, mode := range []codegen.Mode{codegen.Debug, codegen.Production} {
			byName := stubTranscript(t, spec, mode, nameOps)
			byHandle := stubTranscript(t, spec, mode, accessorOps)
			if a, b := strings.Join(byName, "\n"), strings.Join(byHandle, "\n"); a != b {
				t.Errorf("%s %s: Accessor transcript differs from Stubs transcript", sp.Filename, mode)
			}
			all = append(all, byName...)
		}
	}
	got := strings.Join(all, "\n") + "\n"
	path := filepath.Join("testdata", "stubtrace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stub trace differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stub trace differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
