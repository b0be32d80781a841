package experiment

import (
	"fmt"

	"repro/internal/cdriver/cinterp"
	"repro/internal/hw"
	"repro/internal/hw/permedia"
)

// The Permedia 2 experiment lights up the fourth Table-2 device: a
// frame-buffer bring-up workload over the graphics chip's control
// aperture. The boot is reset (with the chip's real reset latency),
// video-timing programming, interrupt enable, then a FIFO-fed render
// script under flow control and a DMA transfer acknowledged through the
// interrupt flags. The kernel — not the driver — holds the expected
// timing values, word counts and DMA parameters, so a driver that
// misprograms the timing generator, overruns the FIFO, drops render
// words or leaves interrupts pending is caught as visible damage: the
// graphics analogue of the busmouse's wild cursor.

// Bus assembly: the 24-dword control aperture and the separate
// graphics-processor input-FIFO window.
const (
	gfxCtrlBase hw.Port = 0x8000
	gfxFIFOBase hw.Port = 0x9000
)

// The ground truth the kernel audits against; the driver sources
// program the same values from their own constants, so a mutated
// literal diverges visibly.
const (
	gfxVTotal   = 64       // vertical total, in lines
	gfxDMAAddr  = 0x200000 // DMA base address
	gfxDMACount = 96       // DMA transfer length in dwords
	gfxIntMask  = 0x19     // DMA | Error | VRetrace enable bits
)

// gfxBatches is the deterministic render script: FIFO word counts the
// kernel asks the driver to feed the graphics processor, sized around
// the 32-word FIFO so the largest batch cannot complete without flow
// control.
var gfxBatches = []int{12, 32, 48}

var gfxWorkload = WorkloadDesc{
	Name:    "permedia",
	Drivers: []string{"permedia_c", "permedia_devil"},
	Spec:    "permedia",
	Bases: map[string]hw.Port{
		"ctrl": gfxCtrlBase,
		"fifo": gfxFIFOBase,
	},
	Build: func(r *Rig) (any, error) {
		gpu := permedia.New(r.Clock)
		if err := r.Bus.Map(gfxCtrlBase, 24, gpu.Control()); err != nil {
			return nil, err
		}
		if err := r.Bus.Map(gfxFIFOBase, 1, gpu.FIFO()); err != nil {
			return nil, err
		}
		return gpu, nil
	},
	Reset: func(dev any) { dev.(*permedia.GPU).Reset() },
	Run:   runGfxBoot,
}

// runGfxBoot drives the bring-up: initialise (reset, timing, video,
// interrupts), feed the render script through the input FIFO, run one
// DMA transfer, then audit the chip state against the expected script.
func runGfxBoot(r *Rig, ex Engine, res *BootResult) (error, bool) {
	kern, gpu := r.Kern, r.Dev.(*permedia.GPU)
	ret, err := ex.Call("gfx_init")
	if err != nil {
		return err, false
	}
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		return kern.Panic("permedia: initialisation failed"), false
	}
	damaged := false
	total := 0
	for i, words := range gfxBatches {
		total += words
		v, err := ex.Call("gfx_render", cinterp.IntValue(int64(words)))
		if err != nil {
			return err, false
		}
		if v.Kind == cinterp.ValInt && v.I != 0 {
			kern.Printk(fmt.Sprintf("permedia: render batch %d failed", i))
			damaged = true
		}
	}
	v, err := ex.Call("gfx_dma",
		cinterp.IntValue(gfxDMAAddr), cinterp.IntValue(gfxDMACount))
	if err != nil {
		return err, false
	}
	if v.Kind == cinterp.ValInt && v.I != 0 {
		kern.Printk("permedia: dma transfer failed")
		damaged = true
	}
	// The audit: the chip must hold exactly the state the script implies.
	if !gpu.VideoEnabled() {
		kern.Printk("permedia: video left disabled")
		damaged = true
	}
	if gpu.VTotal() != gfxVTotal {
		kern.Printk(fmt.Sprintf("permedia: vertical total %d, expected %d",
			gpu.VTotal(), gfxVTotal))
		damaged = true
	}
	if gpu.IntEnable() != gfxIntMask {
		kern.Printk(fmt.Sprintf("permedia: interrupt mask %#x, expected %#x",
			gpu.IntEnable(), gfxIntMask))
		damaged = true
	}
	if gpu.Drained() != uint64(total) {
		kern.Printk(fmt.Sprintf("permedia: core consumed %d words, expected %d",
			gpu.Drained(), total))
		damaged = true
	}
	if gpu.DMAAddress() != gfxDMAAddr || gpu.DMACount() != 0 {
		kern.Printk(fmt.Sprintf("permedia: dma state addr=%#x count=%d, expected addr=%#x count=0",
			gpu.DMAAddress(), gpu.DMACount(), uint32(gfxDMAAddr)))
		damaged = true
	}
	if gpu.IntFlags()&(permedia.IntDMA|permedia.IntError) != 0 {
		kern.Printk(fmt.Sprintf("permedia: interrupts left pending: %#x", gpu.IntFlags()))
		damaged = true
	}
	kern.Printk("permedia: bring-up complete")
	return nil, damaged
}
