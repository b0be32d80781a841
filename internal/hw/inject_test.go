package hw

import (
	"math"
	"math/rand"
	"testing"
)

// counterDev is a read-sensitive device: every read strobe advances the
// value, so dropped and doubled strobes are visible in the stream.
type counterDev struct {
	n      uint32
	writes int
}

func (d *counterDev) Name() string { return "counter" }

func (d *counterDev) Read(off Port, width AccessWidth) (uint32, error) {
	d.n++
	return d.n, nil
}

func (d *counterDev) Write(off Port, width AccessWidth, v uint32) error {
	d.writes++
	return nil
}

func injectedBus(t *testing.T, cfg InjectorConfig, clock *Clock) (*Bus, *Injector, *counterDev) {
	t.Helper()
	b := NewBus()
	dev := &counterDev{}
	if err := b.Map(0x100, 4, dev); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(cfg, clock)
	b.SetInjector(inj)
	return b, inj, dev
}

// readStream reads the port n times and returns the observed values.
func readStream(t *testing.T, b *Bus, n int) []uint32 {
	t.Helper()
	out := make([]uint32, n)
	for i := range out {
		v, err := b.Read(0x100, Width8)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// TestInjectorDeterminism: the same seed over the same access sequence
// yields byte-identical observed values and fault counts; a different
// seed yields a different fault pattern.
func TestInjectorDeterminism(t *testing.T) {
	cfg := InjectorConfig{DropPerMyriad: 1500, DupPerMyriad: 1500, StalePerMyriad: 1500}
	run := func(seed uint64) ([]uint32, [3]uint64) {
		b, inj, _ := injectedBus(t, cfg, nil)
		inj.Reseed(seed)
		vals := readStream(t, b, 400)
		var st [3]uint64
		st[0], st[1], st[2] = inj.Stats()
		return vals, st
	}
	v1, s1 := run(42)
	v2, s2 := run(42)
	if s1 != s2 {
		t.Fatalf("same seed, different fault counts: %v vs %v", s1, s2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("same seed diverged at read %d: %d vs %d", i, v1[i], v2[i])
		}
	}
	if s1[0]+s1[1]+s1[2] == 0 {
		t.Fatal("15%% rates injected nothing over 400 reads")
	}
	v3, _ := run(43)
	same := true
	for i := range v1 {
		if v1[i] != v3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

// TestInjectorReseedRewinds: Reseed makes one injector replay the exact
// fault pattern — the per-boot reuse pattern campaign workers rely on.
func TestInjectorReseedRewinds(t *testing.T) {
	cfg := InjectorConfig{DropPerMyriad: 2000, DupPerMyriad: 2000, StalePerMyriad: 2000}
	b := NewBus()
	dev := &counterDev{}
	if err := b.Map(0x100, 4, dev); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(cfg, nil)
	b.SetInjector(inj)

	inj.Reseed(7)
	first := readStream(t, b, 200)
	d1, u1, s1 := inj.Stats()
	dev.n = 0 // rewind the device alongside the injector, like a rig Reset
	inj.Reseed(7)
	second := readStream(t, b, 200)
	d2, u2, s2 := inj.Stats()
	if d1 != d2 || u1 != u2 || s1 != s2 {
		t.Fatalf("reseed did not rewind the fault counters: (%d,%d,%d) vs (%d,%d,%d)",
			d1, u1, s1, d2, u2, s2)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reseed did not replay: read %d is %d, was %d", i, second[i], first[i])
		}
	}
}

// TestInjectorFaultModes: each fault class shows its signature — drops
// return the floating value without strobing the device, dups advance
// the device twice, stale reads repeat the previous latch — and the
// pristine (all-zero) config is a transparent wrapper.
func TestInjectorFaultModes(t *testing.T) {
	// Drop-only: floating values appear, and the device sees exactly
	// (reads - drops) strobes.
	b, inj, dev := injectedBus(t, InjectorConfig{DropPerMyriad: 3000}, nil)
	inj.Reseed(1)
	vals := readStream(t, b, 300)
	drops, _, _ := inj.Stats()
	if drops == 0 {
		t.Fatal("30%% drop rate never dropped in 300 reads")
	}
	floating := 0
	for _, v := range vals {
		if v == 0xff {
			floating++
		}
	}
	if uint64(floating) < drops {
		t.Fatalf("%d drops but only %d floating reads", drops, floating)
	}
	if got, want := uint64(dev.n), uint64(300)-drops; got != want {
		t.Fatalf("device saw %d strobes, want %d (300 reads - %d drops)", got, want, drops)
	}

	// Dup-only: the device sees (reads + dups) strobes.
	b, inj, dev = injectedBus(t, InjectorConfig{DupPerMyriad: 3000}, nil)
	inj.Reseed(1)
	readStream(t, b, 300)
	_, dups, _ := inj.Stats()
	if dups == 0 {
		t.Fatal("30%% dup rate never doubled in 300 reads")
	}
	if got, want := uint64(dev.n), uint64(300)+dups; got != want {
		t.Fatalf("device saw %d strobes, want %d (300 reads + %d dups)", got, want, dups)
	}

	// Stale-only: a stale read repeats an earlier value and skips the
	// strobe, so the monotonic counter stream shows repeats.
	b, inj, dev = injectedBus(t, InjectorConfig{StalePerMyriad: 3000}, nil)
	inj.Reseed(1)
	vals = readStream(t, b, 300)
	_, _, stales := inj.Stats()
	if stales == 0 {
		t.Fatal("30%% stale rate never latched in 300 reads")
	}
	repeats := uint64(0)
	seen := make(map[uint32]bool)
	for _, v := range vals {
		if seen[v] {
			repeats++
		}
		seen[v] = true
	}
	if repeats != stales {
		t.Fatalf("%d stale faults but %d repeated values", stales, repeats)
	}
	if got, want := uint64(dev.n), uint64(300)-stales; got != want {
		t.Fatalf("device saw %d strobes, want %d (300 reads - %d stales)", got, want, stales)
	}

	// Pristine config: transparent.
	b, inj, dev = injectedBus(t, InjectorConfig{}, nil)
	inj.Reseed(1)
	vals = readStream(t, b, 50)
	for i, v := range vals {
		if v != uint32(i+1) {
			t.Fatalf("zero-rate injector perturbed read %d: got %d", i, v)
		}
	}
	if d, u, s := inj.Stats(); d+u+s != 0 {
		t.Fatalf("zero-rate injector counted faults: %d %d %d", d, u, s)
	}
}

// TestInjectorLatency: LatencyTicks charges the clock per mapped access,
// reads and writes alike, and unmapped accesses stay untouched.
func TestInjectorLatency(t *testing.T) {
	clock := &Clock{}
	b, _, _ := injectedBus(t, InjectorConfig{LatencyTicks: 5}, clock)
	b.SetFloating(true)
	start := clock.Now()
	if _, err := b.Read(0x100, Width8); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0x100, Width8, 1); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now() - start; got != 10 {
		t.Fatalf("two mapped accesses charged %d ticks, want 10", got)
	}
	start = clock.Now()
	if _, err := b.Read(0x900, Width8); err != nil { // unmapped: floats
		t.Fatal(err)
	}
	if got := clock.Now() - start; got != 0 {
		t.Fatalf("unmapped access charged %d ticks, want 0", got)
	}
}

// TestInjectorClean: Clean(max) is the number of leading reads, of at
// most max, that read makes with no drop, dup or stale, over random
// seeds and rates, zero rates included; it changes nothing, and with
// zero rates it answers any max at once.
func TestInjectorClean(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	for trial := 0; trial < 400; trial++ {
		var cfg InjectorConfig
		if trial%4 != 0 {
			cfg = InjectorConfig{
				DropPerMyriad:  uint32(rng.Intn(1500)),
				DupPerMyriad:   uint32(rng.Intn(1500)),
				StalePerMyriad: uint32(rng.Intn(1500)),
			}
		}
		b, inj, _ := injectedBus(t, cfg, nil)
		inj.Reseed(rng.Uint64())
		// Latch the port first: before that, a stale roll strobes the
		// device as a clean read does, and Clean stops at it anyway.
		for {
			if _, ok := b.Latched(0x100); ok {
				break
			}
			readStream(t, b, 1)
		}
		max := uint64(rng.Intn(120))
		clean, ord := inj.Clean(max), inj.Ordinal()
		if again := inj.Clean(max); again != clean || inj.Ordinal() != ord {
			t.Fatalf("trial %d: Clean moved the injector: %d then %d, ordinal %d then %d", trial, clean, again, ord, inj.Ordinal())
		}
		var made uint64
		for made < max {
			d, u, s := inj.Stats()
			readStream(t, b, 1)
			if d2, u2, s2 := inj.Stats(); d2+u2+s2 != d+u+s {
				break
			}
			made++
		}
		if made != clean {
			t.Fatalf("trial %d (%+v): Clean(%d) = %d, but %d reads went unperturbed", trial, cfg, max, clean, made)
		}
	}
	_, inj, _ := injectedBus(t, InjectorConfig{LatencyTicks: 8}, nil)
	if got := inj.Clean(math.MaxUint64); got != math.MaxUint64 {
		t.Fatalf("zero-rate Clean(MaxUint64) = %d", got)
	}
}

// TestInjectorReseedAllocs: once the first boot has allocated the
// mappings' latches, Reseed and a replay of reads, faults and stale
// latches included, allocate nothing.
func TestInjectorReseedAllocs(t *testing.T) {
	b, inj, dev := injectedBus(t, InjectorConfig{DropPerMyriad: 1000, DupPerMyriad: 1000, StalePerMyriad: 1000, LatencyTicks: 2}, &Clock{})
	replay := func() {
		inj.Reseed(7)
		dev.n = 0
		for k := 0; k < 200; k++ {
			if _, err := b.Read(0x100+Port(k%4), Width8); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay()
	if _, _, stales := inj.Stats(); stales == 0 {
		t.Fatal("the replay made no stale read")
	}
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Errorf("Reseed and replay allocated %v times", allocs)
	}
}
