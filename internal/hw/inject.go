package hw

// This file is the bus-level fault injector behind the campaign's
// scenario axis. An Injector sits on the Bus data path and perturbs
// mapped-device accesses with the failure modes field hardware shows a
// driver: port reads that return the floating data lines (a dropped
// strobe), reads the device sees twice (a doubled strobe perturbing
// read-sensitive registers), reads that return the port's previously
// latched value (a delayed latch), and extra device-time charged per
// access (a slow part). Unmapped-port accesses are untouched: those
// already model a missing device.
//
// Every decision is a pure function of (seed, access ordinal) through a
// splitmix64 mix, never of global randomness or wall time. The two
// execution backends make byte-identical bus access sequences (the
// differential oracle pins console, coverage and step counts), so a
// reseeded injector perturbs both identically — which is what lets the
// oracle hold observables byte-identical under every scenario. Campaign
// workers reseed per boot from the task's fingerprint, so serial,
// sharded and resumed runs of one cell see the same faults.
//
// Because the decisions are known in advance, the bus predicts reads
// through an injector (see Bus.Steady and Bus.Burst): Clean says how
// many upcoming reads roll no fault, and a read the bus skips or
// bursts within that many advances the ordinal, charges the latency
// and latches its value exactly as read does, so the fault counts do
// not move.

// InjectorConfig sets the per-access fault rates. The three read-fault
// rates are per ten thousand reads of mapped ports; their sum must stay
// below 10_000. LatencyTicks is charged on every mapped-device access,
// read or write.
type InjectorConfig struct {
	// DropPerMyriad is the rate of reads that return the floating value
	// without the device ever seeing the strobe.
	DropPerMyriad uint32
	// DupPerMyriad is the rate of reads issued to the device twice; the
	// driver sees the second value.
	DupPerMyriad uint32
	// StalePerMyriad is the rate of reads that return the port's
	// previously latched value instead of strobing the device.
	StalePerMyriad uint32
	// LatencyTicks is the extra device time every mapped access costs.
	LatencyTicks uint64
}

// Injector perturbs a Bus's mapped-device accesses deterministically.
// Like the Bus it attaches to, an Injector belongs to one worker
// goroutine; Reseed rewinds it between boots.
type Injector struct {
	cfg   InjectorConfig
	clock *Clock
	seed  uint64
	n     uint64 // read ordinal since the last Reseed
	// gen names the current boot's latches: a mapping's latch entry is
	// live only while its gen matches (see mapping.latch).
	gen uint64

	drops  uint64
	dups   uint64
	stales uint64
}

// NewInjector builds an injector with the given rates. The clock, when
// non-nil, is charged LatencyTicks per mapped access.
func NewInjector(cfg InjectorConfig, clock *Clock) *Injector {
	return &Injector{cfg: cfg, clock: clock, gen: 1}
}

// Reseed rewinds the injector to the start of a boot under the given
// seed: the read ordinal, the per-port latches and the fault counters
// all reset, so one (seed, access sequence) pair always yields the same
// faults. Moving to a new latch generation drops every latch without
// touching, or allocating, any.
func (i *Injector) Reseed(seed uint64) {
	i.seed = seed
	i.n = 0
	i.gen++
	i.drops, i.dups, i.stales = 0, 0, 0
}

// Stats reports the faults injected since the last Reseed.
func (i *Injector) Stats() (drops, dups, stales uint64) {
	return i.drops, i.dups, i.stales
}

// Ordinal is the number of reads rolled since the last Reseed.
func (i *Injector) Ordinal() uint64 { return i.n }

// latency is the device time each mapped access charges to the clock.
func (i *Injector) latency() uint64 {
	if i.clock == nil {
		return 0
	}
	return i.cfg.LatencyTicks
}

// mix is the splitmix64 mix of a read ordinal (counted from 1).
func (i *Injector) mix(ord uint64) uint64 {
	x := i.seed + ord*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// roll consumes one read ordinal and returns its mix.
func (i *Injector) roll() uint64 {
	i.n++
	return i.mix(i.n)
}

// faulty is the per-myriad threshold below which a roll faults.
func (i *Injector) faulty() uint64 {
	return uint64(i.cfg.DropPerMyriad) + uint64(i.cfg.DupPerMyriad) + uint64(i.cfg.StalePerMyriad)
}

// Clean reports how many of the next max reads roll no fault: no drop,
// no doubled strobe and no stale latch. A stale roll stops it even on a
// port with no live latch, where read would strobe the device anyway.
// It changes nothing and costs one mix per ordinal it looks at; with
// zero fault rates it looks at none.
func (i *Injector) Clean(max uint64) uint64 {
	t := i.faulty()
	if t == 0 {
		return max
	}
	for k := uint64(0); k < max; k++ {
		if i.mix(i.n+1+k)%10_000 < t {
			return k
		}
	}
	return max
}

// skip accounts n reads of port on m that Clean cleared and that
// returned v, as read would: it consumes their ordinals, charges their
// latency and latches v.
func (i *Injector) skip(m *mapping, port Port, v uint32, n uint64) {
	i.n += n
	if l := i.latency(); l > 0 {
		i.clock.Tick(n * l)
	}
	*m.latchAt(port) = latch{v: v, gen: i.gen}
}

// delay charges the configured access latency to the clock.
func (i *Injector) delay() {
	if l := i.latency(); l > 0 {
		i.clock.Tick(l)
	}
}

// read services one mapped read through the fault model. It owns the
// whole read path — device strobe, trace record, masking — so the Bus
// fast path stays a single nil check.
func (i *Injector) read(b *Bus, m *mapping, port Port, width AccessWidth) (uint32, error) {
	i.delay()
	mode := i.roll() % 10_000
	switch {
	case mode < uint64(i.cfg.DropPerMyriad):
		// Dropped strobe: the device never sees the read and the driver
		// sees the floating data lines, exactly like an unmapped port.
		i.drops++
		b.record(Access{Port: port, Width: width, Value: widthMask(width)})
		return widthMask(width), nil
	case mode < uint64(i.cfg.DropPerMyriad+i.cfg.DupPerMyriad):
		// Doubled strobe: read-sensitive registers (status latches, FIFO
		// heads) advance twice; the driver sees the second value. A fault
		// on the discarded strobe is dropped with it.
		i.dups++
		_, _ = m.dev.Read(port-m.base, width)
	case mode < uint64(i.cfg.DropPerMyriad+i.cfg.DupPerMyriad+i.cfg.StalePerMyriad):
		// Delayed latch: the port returns what it last read. Before the
		// first successful read there is nothing latched and the strobe
		// goes through normally.
		if l := m.latchAt(port); l.gen == i.gen {
			i.stales++
			v := l.v & widthMask(width)
			b.record(Access{Port: port, Width: width, Value: v})
			return v, nil
		}
	}
	v, err := m.dev.Read(port-m.base, width)
	v &= widthMask(width)
	b.record(Access{Port: port, Width: width, Value: v, Fault: err != nil})
	if err != nil {
		return 0, deviceError(m, err)
	}
	*m.latchAt(port) = latch{v: v, gen: i.gen}
	return v, nil
}

// write charges the access latency on one mapped write; writes are
// otherwise delivered untouched (a lost write is indistinguishable from
// a driver bug, so the model keeps faults on the observable read side).
func (i *Injector) write() {
	i.delay()
}
