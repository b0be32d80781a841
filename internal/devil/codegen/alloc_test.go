package codegen_test

import (
	"testing"

	"repro/internal/devil"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
)

// cellDevice serves reads from its cells and stores writes, recording
// nothing, so allocation counts see only the stubs.
type cellDevice struct{ cells [16]uint32 }

func (d *cellDevice) Name() string { return "cells" }

func (d *cellDevice) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	return d.cells[off], nil
}

func (d *cellDevice) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	d.cells[off] = v
	return nil
}

// TestStubDispatchAllocatesNothing pins the access plans' promise: resolving
// a handle and a successful Get or Set through it allocate nothing, for a
// pre-action register pair (Pair, two fragments on two windows), an enum
// read (Power) and plain and set-typed writes.
func TestStubDispatchAllocatesNothing(t *testing.T) {
	for _, mode := range []codegen.Mode{codegen.Debug, codegen.Production} {
		spec, err := devil.Compile("testdev.dil", testSpec)
		if err != nil {
			t.Fatal(err)
		}
		bus := hw.NewBus()
		dev := &cellDevice{}
		if err := bus.Map(0x40, 5, dev); err != nil {
			t.Fatal(err)
		}
		stubs, err := spec.Generate(devil.Config{Bus: bus, Bases: map[string]hw.Port{"base": 0x40}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		handle := func(name string) *codegen.Accessor {
			a, ok := stubs.Accessor(name)
			if !ok {
				t.Fatalf("no accessor for %s", name)
			}
			return a
		}
		pair, power, whole, modeVar := handle("Pair"), handle("Power"), handle("Whole"), handle("Mode")
		on, _ := stubs.Const("POWER_ON")
		dev.cells[3] = 1 // a Power read matches POWER_ON
		dev.cells[4] = 2 // a Mode read is in its set
		cases := []struct {
			name string
			op   func() error
		}{
			{"Accessor", func() error { handle("Pair"); return nil }},
			{"Get Pair", func() error { _, err := pair.Get(); return err }},
			{"Get Power", func() error { _, err := power.Get(); return err }},
			{"Get Mode", func() error { _, err := modeVar.Get(); return err }},
			{"Set Power", func() error { return power.Set(on) }},
			{"Set Whole", func() error { return whole.Set(codegen.UntypedInt(0xa5)) }},
			{"Set Mode", func() error { return modeVar.Set(codegen.UntypedInt(3)) }},
			{"Stubs.Get", func() error { _, err := stubs.Get("Pair"); return err }},
			{"Stubs.Set", func() error { return stubs.Set("Whole", codegen.UntypedInt(1)) }},
		}
		for _, c := range cases {
			var opErr error
			allocs := testing.AllocsPerRun(100, func() {
				if err := c.op(); err != nil {
					opErr = err
				}
			})
			if opErr != nil {
				t.Errorf("%s %s: %v", mode, c.name, opErr)
			}
			if allocs != 0 {
				t.Errorf("%s %s: %.1f allocations per run, want 0", mode, c.name, allocs)
			}
		}
	}
}
