package pci

import (
	"fmt"

	"repro/internal/hw"
)

// BMICX bits.
const (
	BMStart    = 0x01
	BMReadMode = 0x08
)

// BMISX bits.
const (
	BMActive    = 0x01
	BMError     = 0x02
	BMInterrupt = 0x04
)

// dmaTicks is how long a started transfer stays active.
const dmaTicks = 30

// BusMaster is the 82371FB primary-channel model. It exposes three
// endpoints matching the specification's three port parameters.
type BusMaster struct {
	bmicx   uint8
	bmisx   uint8
	bmidtpx uint32
	doneAt  uint64
	clock   *hw.Clock
}

// New attaches a bus master to the clock.
func New(clock *hw.Clock) *BusMaster {
	bm := &BusMaster{clock: clock, bmisx: 0x60} // both drives DMA-capable
	clock.OnTick(bm.tick)
	return bm
}

func (b *BusMaster) tick(now uint64) {
	if b.bmisx&BMActive != 0 && now >= b.doneAt {
		b.bmisx &^= BMActive
		b.bmisx |= BMInterrupt
	}
}

// Reset returns the bus master to the power-on state New leaves it in:
// engine stopped, latches clear, both drives DMA-capable, descriptor
// pointer zeroed. It is the campaign worker's rig-reuse hook.
func (b *BusMaster) Reset() {
	b.bmicx = 0
	b.bmisx = 0x60
	b.bmidtpx = 0
	b.doneAt = 0
}

// DescriptorTable returns the programmed PRD table address.
func (b *BusMaster) DescriptorTable() uint32 { return b.bmidtpx &^ 3 }

// Active reports whether a transfer is in flight.
func (b *BusMaster) Active() bool { return b.bmisx&BMActive != 0 }

// IrqPending reports whether the completion interrupt is latched.
func (b *BusMaster) IrqPending() bool { return b.bmisx&BMInterrupt != 0 }

// ErrorLatched reports whether the error latch is set.
func (b *BusMaster) ErrorLatched() bool { return b.bmisx&BMError != 0 }

// Capabilities returns the drive-capability bits (0x60 at power-on).
func (b *BusMaster) Capabilities() uint8 { return b.bmisx & 0x60 }

type endpoint struct {
	bm  *BusMaster
	reg int // 0 = bmicx, 1 = bmisx, 2 = bmidtpx
}

var _ hw.Device = (*endpoint)(nil)

// Command returns the BMICX endpoint.
func (b *BusMaster) Command() hw.Device { return &endpoint{bm: b, reg: 0} }

// Status returns the BMISX endpoint.
func (b *BusMaster) Status() hw.Device { return &endpoint{bm: b, reg: 1} }

// Descriptor returns the BMIDTPX endpoint.
func (b *BusMaster) Descriptor() hw.Device { return &endpoint{bm: b, reg: 2} }

// Name implements hw.Device.
func (e *endpoint) Name() string {
	switch e.reg {
	case 0:
		return "piix-bmicx"
	case 1:
		return "piix-bmisx"
	default:
		return "piix-bmidtpx"
	}
}

// Read implements hw.Device.
func (e *endpoint) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	if offset != 0 {
		return 0, fmt.Errorf("pci: read of nonexistent register %d", offset)
	}
	switch e.reg {
	case 0:
		return uint32(e.bm.bmicx), nil
	case 1:
		return uint32(e.bm.bmisx), nil
	default:
		return e.bm.bmidtpx, nil
	}
}

// Write implements hw.Device.
func (e *endpoint) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	if offset != 0 {
		return fmt.Errorf("pci: write of nonexistent register %d", offset)
	}
	switch e.reg {
	case 0:
		prev := e.bm.bmicx
		e.bm.bmicx = uint8(value)
		if value&BMStart != 0 && prev&BMStart == 0 {
			e.bm.bmisx |= BMActive
			e.bm.doneAt = e.bm.clock.Now() + dmaTicks
		}
		if value&BMStart == 0 {
			e.bm.bmisx &^= BMActive
		}
	case 1:
		// Interrupt and error latches are write-1-to-clear; the capability
		// bits are plain read/write.
		v := uint8(value)
		e.bm.bmisx &^= v & (BMInterrupt | BMError)
		e.bm.bmisx = e.bm.bmisx&^0x60 | v&0x60
	default:
		e.bm.bmidtpx = value &^ 3
	}
	return nil
}
