package permedia

import (
	"fmt"

	"repro/internal/hw"
)

// Control-register dword indices within the aperture.
const (
	regResetStatus = 0
	regIntEnable   = 1
	regIntFlags    = 2
	regInFIFOSpace = 3
	regOutFIFO     = 4
	regDMAAddress  = 5
	regDMACount    = 6
	regFIFODiscon  = 7
	regChipConfig  = 8
	regScreenBase  = 9
	regStride      = 10
	regHTotal      = 11
	regVTotal      = 16
	regVideoCtl    = 20
	regLineCount   = 21
	regFBReadMode  = 22
	regFBWriteMode = 23
	numRegs        = 24
)

// Interrupt flag bits.
const (
	IntDMA      = 0x01
	IntSync     = 0x02
	IntExternal = 0x04
	IntError    = 0x08
	IntVRetrace = 0x10
)

const (
	resetTicks    = 100
	fifoCapacity  = 32
	fifoDrainTime = 8 // ticks per FIFO word the graphics core consumes
	dmaTickRate   = 8 // DMA dwords counted down per tick
)

// GPU is the Permedia 2 model.
type GPU struct {
	regs       [numRegs]uint32
	resetUntil uint64
	fifo       []uint32
	fifoCredit uint64 // elapsed ticks not yet converted into drained words; 0 while the FIFO is empty
	clock      *hw.Clock
	lastNow    uint64
	drained    uint64 // total FIFO words consumed by the core
}

// New attaches a GPU model to the clock.
func New(clock *hw.Clock) *GPU {
	return &GPU{clock: clock}
}

// Reset returns the GPU to the cold power-on state New leaves it in:
// registers cleared, FIFO empty, drain counter rewound. It is the
// campaign worker's rig-reuse hook — distinct from the warm reset a
// write to the reset register performs, which takes resetTicks to
// complete.
func (g *GPU) Reset() {
	g.regs = [numRegs]uint32{}
	g.resetUntil = 0
	g.fifo = g.fifo[:0]
	g.fifoCredit = 0
	g.drained = 0
	g.lastNow = g.clock.Now()
}

// catchUp advances the model to the clock's current time. Every endpoint
// access and every time-dependent accessor calls it first, so the model
// works in virtual time elapsed since the last observation. A mutated
// driver can make that enormous (a mutated udelay constant), so every
// computation below clamps rather than trusting elapsed to be small —
// the model must misbehave politely, never panic or wedge.
func (g *GPU) catchUp() {
	now := g.clock.Now()
	elapsed := now - g.lastNow
	g.lastNow = now
	if elapsed == 0 {
		return
	}
	// The graphics core consumes one FIFO word every fifoDrainTime ticks;
	// an idle core accrues no credit, so a word pushed into an empty FIFO
	// starts its drain countdown from zero.
	if len(g.fifo) > 0 {
		credit := g.fifoCredit + elapsed
		words := credit / fifoDrainTime
		g.fifoCredit = credit % fifoDrainTime
		drain := len(g.fifo)
		if words >= uint64(drain) {
			g.fifoCredit = 0
		} else {
			drain = int(words)
		}
		g.fifo = g.fifo[drain:]
		g.drained += uint64(drain)
	}
	// DMA engine: counts down, raising the DMA interrupt at zero.
	if cnt := g.regs[regDMACount]; cnt > 0 {
		step := uint64(cnt)
		if elapsed < 1<<32 {
			if s := elapsed * dmaTickRate; s < step {
				step = s
			}
		}
		g.regs[regDMACount] = cnt - uint32(step)
		if g.regs[regDMACount] == 0 {
			g.regs[regIntFlags] |= IntDMA
		}
	}
	// Video timing: the line counter runs whenever video is enabled.
	if g.regs[regVideoCtl]&0x01 != 0 {
		vtotal := g.vtotal()
		line := g.regs[regLineCount] + uint32(elapsed%uint64(vtotal))
		if line >= vtotal || elapsed >= uint64(vtotal) {
			g.regs[regIntFlags] |= IntVRetrace
		}
		g.regs[regLineCount] = line % vtotal
	}
}

// Drained reports how many FIFO words the core has consumed.
func (g *GPU) Drained() uint64 { g.catchUp(); return g.drained }

// FIFODepth reports how many words sit in the input FIFO.
func (g *GPU) FIFODepth() int { g.catchUp(); return len(g.fifo) }

// VideoEnabled reports whether the video timing generator is running.
func (g *GPU) VideoEnabled() bool { return g.regs[regVideoCtl]&0x01 != 0 }

// IntFlags returns the pending interrupt flags.
func (g *GPU) IntFlags() uint32 { g.catchUp(); return g.regs[regIntFlags] }

// IntEnable returns the programmed interrupt enable mask.
func (g *GPU) IntEnable() uint32 { return g.regs[regIntEnable] }

// DMAAddress returns the programmed DMA base address.
func (g *GPU) DMAAddress() uint32 { return g.regs[regDMAAddress] }

// DMACount returns the remaining DMA dword count.
func (g *GPU) DMACount() uint32 { g.catchUp(); return g.regs[regDMACount] }

// VTotal returns the programmed vertical total (in lines).
func (g *GPU) VTotal() uint32 { return g.regs[regVTotal] & 0xfff }

// ScreenBase returns the programmed frame-buffer base address.
func (g *GPU) ScreenBase() uint32 { return g.regs[regScreenBase] }

// control is the control-aperture endpoint.
type control struct{ g *GPU }

// fifoPort is the GP input FIFO endpoint.
type fifoPort struct{ g *GPU }

var (
	_ hw.Device       = (*control)(nil)
	_ hw.SteadyReader = (*control)(nil)
	_ hw.Device       = (*fifoPort)(nil)
	_ hw.SteadyReader = (*fifoPort)(nil)
	_ hw.BurstReader  = (*fifoPort)(nil)
)

// Control returns the control-aperture endpoint (24 dword registers).
func (g *GPU) Control() hw.Device { return &control{g: g} }

// FIFO returns the input-FIFO endpoint.
func (g *GPU) FIFO() hw.Device { return &fifoPort{g: g} }

// Name implements hw.Device.
func (c *control) Name() string { return "permedia2" }

// Read implements hw.Device.
func (c *control) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	g := c.g
	if int(offset) >= numRegs {
		return 0, fmt.Errorf("permedia: read of nonexistent register %d", offset)
	}
	g.catchUp()
	switch int(offset) {
	case regResetStatus:
		if g.clock.Now() < g.resetUntil {
			return 1 << 31, nil
		}
		return 0, nil
	case regInFIFOSpace:
		return uint32(fifoCapacity - len(g.fifo)), nil
	case regOutFIFO:
		return 0, nil
	default:
		return g.regs[offset], nil
	}
}

// Steady implements hw.SteadyReader. No read has a side effect; each
// register holds until the next catch-up that can change it.
func (c *control) Steady(offset hw.Port, width hw.AccessWidth) (uint32, uint64, bool) {
	v, err := c.Read(offset, width) // catches up
	if err != nil {
		return 0, 0, false
	}
	g := c.g
	now := g.clock.Now()
	until := hw.Forever
	switch int(offset) {
	case regResetStatus:
		if now < g.resetUntil {
			until = g.resetUntil
		}
	case regInFIFOSpace:
		if len(g.fifo) > 0 { // the next word drains
			until = now + fifoDrainTime - g.fifoCredit
		}
	case regIntFlags:
		if cnt := g.regs[regDMACount]; cnt > 0 && v&IntDMA == 0 {
			until = now + (uint64(cnt)+dmaTickRate-1)/dmaTickRate
		}
		if g.regs[regVideoCtl]&0x01 != 0 && v&IntVRetrace == 0 {
			until = min(until, now+g.retraceIn())
		}
	case regDMACount:
		if g.regs[regDMACount] > 0 {
			until = now + 1
		}
	case regLineCount:
		if g.regs[regVideoCtl]&0x01 != 0 {
			until = now + 1
		}
	}
	return v, until, true
}

// retraceIn is how many ticks from now the line counter reaches the
// vertical total, as catchUp counts it.
func (g *GPU) retraceIn() uint64 {
	if vtotal, line := g.vtotal(), g.regs[regLineCount]; line < vtotal {
		return uint64(vtotal - line)
	}
	return 1
}

// vtotal is the frame length in lines the timing generator runs.
func (g *GPU) vtotal() uint32 {
	if v := g.regs[regVTotal] & 0xfff; v != 0 {
		return v
	}
	return 1024 // a zero VTotal is bogus; free-run a full frame
}

// Write implements hw.Device.
func (c *control) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	g := c.g
	if int(offset) >= numRegs {
		return fmt.Errorf("permedia: write of nonexistent register %d", offset)
	}
	g.catchUp()
	switch int(offset) {
	case regResetStatus:
		g.resetUntil = g.clock.Now() + resetTicks
		for i := range g.regs {
			g.regs[i] = 0
		}
		g.fifo = nil
		g.fifoCredit = 0
	case regIntFlags:
		g.regs[regIntFlags] &^= value // write 1 to clear
	case regInFIFOSpace, regOutFIFO, regLineCount:
		// read-only
	default:
		g.regs[offset] = value
	}
	return nil
}

// Name implements hw.Device.
func (f *fifoPort) Name() string { return "permedia2-fifo" }

// Read implements hw.Device: the FIFO port is write-only; reads float.
func (f *fifoPort) Read(offset hw.Port, width hw.AccessWidth) (uint32, error) {
	f.g.catchUp()
	return 0xffffffff, nil
}

// Steady implements hw.SteadyReader: reads always float.
func (f *fifoPort) Steady(offset hw.Port, width hw.AccessWidth) (uint32, uint64, bool) {
	return 0xffffffff, hw.Forever, true
}

// Burst implements hw.BurstReader: reads always float.
func (f *fifoPort) Burst(offset hw.Port, width hw.AccessWidth, dst []uint32) int {
	for i := range dst {
		dst[i] = 0xffffffff
	}
	return len(dst)
}

// Write implements hw.Device: push a word into the GP input FIFO. An
// overflowing FIFO raises the error interrupt and drops the word — the
// misbehaviour drivers must avoid by polling InFIFOSpace.
func (f *fifoPort) Write(offset hw.Port, width hw.AccessWidth, value uint32) error {
	g := f.g
	g.catchUp()
	if len(g.fifo) >= fifoCapacity {
		g.regs[regIntFlags] |= IntError
		return nil
	}
	g.fifo = append(g.fifo, value)
	return nil
}
