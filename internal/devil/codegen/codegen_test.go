package codegen_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/devil"
	"repro/internal/devil/codegen"
	"repro/internal/hw"
)

// shadowDevice records every write and serves reads from its cells, so
// stub semantics can be asserted at the port level.
type shadowDevice struct {
	cells  [16]uint32
	writes []struct {
		off hw.Port
		val uint32
	}
}

func (d *shadowDevice) Name() string { return "shadow" }

func (d *shadowDevice) Read(off hw.Port, w hw.AccessWidth) (uint32, error) {
	return d.cells[off], nil
}

func (d *shadowDevice) Write(off hw.Port, w hw.AccessWidth, v uint32) error {
	d.cells[off] = v
	d.writes = append(d.writes, struct {
		off hw.Port
		val uint32
	}{off, v})
	return nil
}

const testSpec = `
device testdev (base : bit[8] port @ {0..4})
{
    // Plain read/write register and variable.
    register plain = base @ 0 : bit[8];
    variable Whole = plain, volatile : int(8);

    // Masked write-only register: bit 7 forced 1, low bits forced 0.
    register masked = write base @ 1, mask '1..00000' : bit[8];
    private variable index = masked[6..5] : int(2);

    // Index-selected registers sharing a port via pre-actions.
    register win_a = read base @ 2, pre {index = 0}, mask '****....' : bit[8];
    register win_b = read base @ 2, pre {index = 1}, mask '****....' : bit[8];
    variable Pair = win_b[3..0] # win_a[3..0], volatile : int(8);

    // Enum-typed variable on a read/write masked register.
    register flags = base @ 3, mask '0000000.' : bit[8];
    variable Power = flags[0] : { POWER_ON <=> '1', POWER_OFF <=> '0' };

    // Set-typed variable.
    register modesel = base @ 4, mask '00000...' : bit[8];
    variable Mode = modesel[2..0], volatile : int {0, 2, 3};
}
`

func buildStubs(t *testing.T, mode codegen.Mode) (*devil.Stubs, *shadowDevice) {
	t.Helper()
	spec, err := devil.Compile("testdev.dil", testSpec)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bus := hw.NewBus()
	dev := &shadowDevice{}
	if err := bus.Map(0x40, 5, dev); err != nil {
		t.Fatal(err)
	}
	stubs, err := spec.Generate(devil.Config{
		Bus:   bus,
		Bases: map[string]hw.Port{"base": 0x40},
		Mode:  mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return stubs, dev
}

func TestWholeRegisterRoundTrip(t *testing.T) {
	stubs, dev := buildStubs(t, codegen.Debug)
	if err := stubs.Set("Whole", codegen.UntypedInt(0xa5)); err != nil {
		t.Fatal(err)
	}
	if dev.cells[0] != 0xa5 {
		t.Errorf("register cell = %#x, want 0xa5", dev.cells[0])
	}
	v, err := stubs.Get("Whole")
	if err != nil {
		t.Fatal(err)
	}
	if v.Val != 0xa5 {
		t.Errorf("read back %#x", v.Val)
	}
}

func TestMaskFixingOnWrite(t *testing.T) {
	stubs, dev := buildStubs(t, codegen.Debug)
	// Setting index = 3 must write bit7=1 (forced), bits 6..5 = 11,
	// bits 4..0 = 0 (forced): 0xe0. index is private, so drive it through
	// the pre-action of a win_b read.
	if _, err := stubs.Get("Pair"); err != nil {
		t.Fatal(err)
	}
	// Pair reads win_b (pre index=1) then win_a (pre index=0): the masked
	// register must have seen 0xa0 then 0x80.
	var maskedWrites []uint32
	for _, w := range dev.writes {
		if w.off == 1 {
			maskedWrites = append(maskedWrites, w.val)
		}
	}
	if len(maskedWrites) != 2 || maskedWrites[0] != 0xa0 || maskedWrites[1] != 0x80 {
		t.Errorf("masked register writes = %#x, want [0xa0 0x80]", maskedWrites)
	}
}

func TestConcatenationOrder(t *testing.T) {
	stubs, dev := buildStubs(t, codegen.Debug)
	// win_a (low nibble of Pair) = 0x0c, win_b (high nibble) = 0x03; but
	// the two windows share one port cell in the shadow device, so set the
	// cell between the two reads by intercepting through the private index
	// write. Simplest: both windows read cell 2; give it a fixed value and
	// check assembly: value 0x5 in bits 3..0 of both reads = 0x55.
	dev.cells[2] = 0x05
	v, err := stubs.Get("Pair")
	if err != nil {
		t.Fatal(err)
	}
	if v.Val != 0x55 {
		t.Errorf("Pair = %#x, want 0x55 (win_b high, win_a low)", v.Val)
	}
}

func TestPrivateVariableInaccessible(t *testing.T) {
	stubs, _ := buildStubs(t, codegen.Debug)
	if _, err := stubs.Get("index"); err == nil {
		t.Error("reading a private variable succeeded")
	}
	if err := stubs.Set("index", codegen.UntypedInt(1)); err == nil {
		t.Error("writing a private variable succeeded")
	}
}

func TestAccessModeEnforcement(t *testing.T) {
	stubs, _ := buildStubs(t, codegen.Debug)
	// win_a/win_b are read-only sources: Pair cannot be written.
	if err := stubs.Set("Pair", codegen.UntypedInt(1)); err == nil {
		t.Error("writing a read-only variable succeeded")
	}
}

func TestDebugTypeAssertions(t *testing.T) {
	stubs, _ := buildStubs(t, codegen.Debug)
	on, ok := stubs.Const("POWER_ON")
	if !ok {
		t.Fatal("no POWER_ON constant")
	}
	if err := stubs.Set("Power", on); err != nil {
		t.Fatalf("typed set failed: %v", err)
	}
	// An untyped integer into an enum variable is a run-time check.
	err := stubs.Set("Power", codegen.UntypedInt(1))
	var ae *codegen.AssertError
	if !errors.As(err, &ae) {
		t.Errorf("untyped write to enum: got %v, want AssertError", err)
	}
	// A value of a different Devil type is a run-time check too.
	foreign := codegen.Value{File: "testdev.dil", Type: 9999, Val: 1}
	if err := stubs.Set("Power", foreign); !errors.As(err, &ae) {
		t.Errorf("foreign type write: got %v, want AssertError", err)
	}
}

func TestDebugRangeAssertions(t *testing.T) {
	stubs, dev := buildStubs(t, codegen.Debug)
	var ae *codegen.AssertError
	// Mode accepts only {0, 2, 3}.
	if err := stubs.Set("Mode", codegen.UntypedInt(1)); !errors.As(err, &ae) {
		t.Errorf("out-of-set write: got %v, want AssertError", err)
	}
	if err := stubs.Set("Mode", codegen.UntypedInt(2)); err != nil {
		t.Errorf("in-set write failed: %v", err)
	}
	// Whole is int(8): 256 is out of range.
	if err := stubs.Set("Whole", codegen.UntypedInt(256)); !errors.As(err, &ae) {
		t.Errorf("out-of-range write: got %v, want AssertError", err)
	}
	// A device returning an out-of-set value trips the read assertion
	// ("either the specification is incorrect, or the device does not
	// behave correctly", §2.3).
	dev.cells[4] = 0x01
	if _, err := stubs.Get("Mode"); !errors.As(err, &ae) {
		t.Errorf("out-of-set read: got %v, want AssertError", err)
	}
}

func TestProductionModeSkipsChecks(t *testing.T) {
	stubs, dev := buildStubs(t, codegen.Production)
	if err := stubs.Set("Mode", codegen.UntypedInt(1)); err != nil {
		t.Errorf("production mode asserted on write: %v", err)
	}
	dev.cells[4] = 0x01
	if _, err := stubs.Get("Mode"); err != nil {
		t.Errorf("production mode asserted on read: %v", err)
	}
	if err := stubs.Set("Power", codegen.UntypedInt(1)); err != nil {
		t.Errorf("production mode type-checked an enum write: %v", err)
	}
}

func TestEq(t *testing.T) {
	stubs, _ := buildStubs(t, codegen.Debug)
	on, _ := stubs.Const("POWER_ON")
	off, _ := stubs.Const("POWER_OFF")
	if eq, err := stubs.Eq(on, on); err != nil || !eq {
		t.Errorf("Eq(on, on) = %v, %v", eq, err)
	}
	if eq, err := stubs.Eq(on, off); err != nil || eq {
		t.Errorf("Eq(on, off) = %v, %v", eq, err)
	}
	// Different types: run-time check.
	foreign := codegen.Value{File: "other.dil", Type: 1, Val: 1}
	var ae *codegen.AssertError
	if _, err := stubs.Eq(on, foreign); !errors.As(err, &ae) {
		t.Errorf("Eq across types: got %v, want AssertError", err)
	}
	// Untyped comparisons are allowed (C ints).
	if eq, err := stubs.Eq(on, codegen.UntypedInt(1)); err != nil || !eq {
		t.Errorf("Eq(on, 1) = %v, %v", eq, err)
	}
}

// TestWholeRoundTripProperty: any byte written through the Whole stub
// reads back identically (the stub pipeline is lossless for full-width
// variables).
func TestWholeRoundTripProperty(t *testing.T) {
	stubs, _ := buildStubs(t, codegen.Debug)
	prop := func(v uint8) bool {
		if err := stubs.Set("Whole", codegen.UntypedInt(int64(v))); err != nil {
			return false
		}
		got, err := stubs.Get("Whole")
		return err == nil && got.Val == uint32(v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestInterfacePublication(t *testing.T) {
	stubs, _ := buildStubs(t, codegen.Debug)
	iface := stubs.Interface()
	byName := make(map[string]codegen.VarSig)
	for _, v := range iface.Vars {
		byName[v.Name] = v
	}
	if _, ok := byName["index"]; ok {
		t.Error("private variable published in the interface")
	}
	whole := byName["Whole"]
	if whole.Block {
		t.Error("8-bit variables must not offer block stubs (FIFOs are 16/32-bit)")
	}
	power := byName["Power"]
	if power.Kind != codegen.KindEnum || len(power.Consts) != 2 {
		t.Errorf("Power signature: %+v", power)
	}
	if iface.Consts["POWER_ON"] != "Power" {
		t.Errorf("constant index: %v", iface.Consts)
	}
	pair := byName["Pair"]
	if pair.Writable || !pair.Readable {
		t.Errorf("Pair modes: %+v", pair)
	}
}

func TestGenerateValidation(t *testing.T) {
	spec, err := devil.Compile("testdev.dil", testSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Missing base binding.
	_, err = spec.Generate(devil.Config{Bus: hw.NewBus(), Mode: codegen.Debug})
	if err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Errorf("missing base: %v", err)
	}
	// Missing bus.
	if _, err := spec.Generate(devil.Config{Mode: codegen.Debug}); err == nil {
		t.Error("missing bus accepted")
	}
	// Invalid mode.
	_, err = spec.Generate(devil.Config{
		Bus:   hw.NewBus(),
		Bases: map[string]hw.Port{"base": 0},
	})
	if err == nil {
		t.Error("zero mode accepted")
	}
}

// TestCyclicPreActionsFail: the checker rejects a pre-action on the
// register it guards, but not two registers whose pre-actions set each
// other's variables. Reading through such a register must fail with an
// error instead of recursing without bound.
func TestCyclicPreActionsFail(t *testing.T) {
	const src = `
device cyclic (base : bit[8] port @ {0..1})
{
    register a = base @ 0, pre {vb = 0} : bit[8];
    register b = base @ 1, pre {va = 0} : bit[8];
    private variable va = a[3..0] : int(4);
    private variable vb = b[3..0] : int(4);
    variable X = a[7..4], volatile : int(4);
    variable Y = b[7..4], volatile : int(4);
}
`
	spec, err := devil.Compile("cyclic.dil", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bus := hw.NewBus()
	bus.SetFloating(true)
	stubs, err := spec.Generate(devil.Config{Bus: bus, Bases: map[string]hw.Port{"base": 0x40}, Mode: codegen.Debug})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := stubs.Get("X"); err == nil || !strings.Contains(err.Error(), "cyclic pre-actions") {
			t.Errorf("Get through cyclic pre-actions: %v", err)
		}
	}
	if err := stubs.Set("X", codegen.UntypedInt(1)); err == nil || !strings.Contains(err.Error(), "cyclic pre-actions") {
		t.Errorf("Set through cyclic pre-actions: %v", err)
	}
}
