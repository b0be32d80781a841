package experiment

import (
	"fmt"

	"repro/internal/cdriver/cinterp"
	"repro/internal/hw"
	"repro/internal/hw/pci"
)

// The 82371FB bus-master experiment completes the Table-2 set: the
// PIIX4's bus-master DMA function as an extension of the IDE workload —
// where the PIO IDE pair moves sectors a word at a time, this pair
// programs physical-region-descriptor transfers through the bus-master
// engine's command/status/descriptor registers. The boot is a
// capability probe plus a scripted sequence of DMA transactions; the
// kernel holds the expected descriptor-table addresses and directions,
// so a driver that programs the wrong PRD address, leaves the engine
// running, forgets to acknowledge the completion interrupt or clobbers
// the drive-capability latches is caught as visible damage.

// Bus assembly at the conventional BMIBA offsets: command at +0, status
// at +2, descriptor pointer at +4.
const (
	bmCmdBase  hw.Port = 0xc000
	bmStatBase hw.Port = 0xc002
	bmDescBase hw.Port = 0xc004
)

// bmScript is the deterministic transfer script: PRD table address and
// direction (1 = read to memory) of each transaction the kernel
// requests. Addresses are dword-aligned, as the engine forces.
var bmScript = []struct {
	addr uint32
	read int
}{
	{0x0001000, 1},
	{0x0042000, 0},
	{0x01f8000, 1},
	{0x0300400, 1},
}

var dmaWorkload = WorkloadDesc{
	Name:    "busmaster",
	Drivers: []string{"busmaster_c", "busmaster_devil"},
	Spec:    "pci",
	Bases: map[string]hw.Port{
		"bmicmd":  bmCmdBase,
		"bmistat": bmStatBase,
		"bmidesc": bmDescBase,
	},
	Build: func(r *Rig) (any, error) {
		bm := pci.New(r.Clock)
		if err := r.Bus.Map(bmCmdBase, 1, bm.Command()); err != nil {
			return nil, err
		}
		if err := r.Bus.Map(bmStatBase, 1, bm.Status()); err != nil {
			return nil, err
		}
		if err := r.Bus.Map(bmDescBase, 1, bm.Descriptor()); err != nil {
			return nil, err
		}
		return bm, nil
	},
	Reset: func(dev any) { dev.(*pci.BusMaster).Reset() },
	Run:   runBMBoot,
}

// runBMBoot drives the transfer script: initialise (probe capabilities,
// clear stale latches), run every scripted transaction, then audit the
// engine state against what a correct driver must leave behind.
func runBMBoot(r *Rig, ex Engine, res *BootResult) (error, bool) {
	kern, bm := r.Kern, r.Dev.(*pci.BusMaster)
	ret, err := ex.Call("bm_init")
	if err != nil {
		return err, false
	}
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		return kern.Panic("piix: initialisation failed"), false
	}
	damaged := false
	for i, tr := range bmScript {
		v, err := ex.Call("bm_transfer",
			cinterp.IntValue(int64(tr.addr)), cinterp.IntValue(int64(tr.read)))
		if err != nil {
			return err, false
		}
		if v.Kind == cinterp.ValInt && v.I != 0 {
			kern.Printk(fmt.Sprintf("piix: transfer %d failed", i))
			damaged = true
			continue
		}
		if got := bm.DescriptorTable(); got != tr.addr&^3 {
			kern.Printk(fmt.Sprintf("piix: transfer %d descriptor table %#x, expected %#x",
				i, got, tr.addr&^3))
			damaged = true
		}
	}
	// The audit: engine idle, no pending latches, capabilities intact.
	if bm.Active() {
		kern.Printk("piix: engine left running")
		damaged = true
	}
	if bm.IrqPending() {
		kern.Printk("piix: completion interrupt left pending")
		damaged = true
	}
	if bm.ErrorLatched() {
		kern.Printk("piix: error latch left set")
		damaged = true
	}
	if bm.Capabilities() != 0x60 {
		kern.Printk(fmt.Sprintf("piix: drive capabilities clobbered: %#x", bm.Capabilities()))
		damaged = true
	}
	kern.Printk("piix: transfer script complete")
	return nil, damaged
}
