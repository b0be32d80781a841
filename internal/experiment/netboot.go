package experiment

import (
	"bytes"
	"fmt"

	"repro/internal/cdriver/cinterp"
	"repro/internal/hw"
	"repro/internal/hw/ne2000"
)

// The NE2000 experiment adds the third driver pair: an interrupt- and
// DMA-heavy device family, exercising the banked register file, the
// remote-DMA engine and the receive ring of the simulated adapter. The
// boot is a kernel-audited packet round trip: probe the adapter through
// the reset latch, bring the core up in internal loopback, transmit a
// deterministic frame script via remote DMA, then drain the receive
// ring and compare every payload byte against what was sent. A frame
// that comes back corrupt, truncated or duplicated is visible damage —
// the network analogue of the busmouse's wild cursor.

// Bus assembly of the adapter at the conventional 0x300 base: the 16-port
// 8390 register file, the 16-bit remote-DMA data port, and the reset
// latch.
const (
	netRegBase   hw.Port = 0x300
	netDataBase  hw.Port = 0x310
	netResetBase hw.Port = 0x31f
)

// netMAC is the station address both drivers program into PAR0..5.
var netMAC = [6]byte{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}

// netFrames is the deterministic frame script the simulated kernel
// transmits: broadcast Ethernet frames of assorted (even) lengths, small
// enough that each occupies one receive-ring page and the drain never
// wraps. The payload pattern varies per frame so a swapped or duplicated
// frame cannot compare clean.
var netFrames = buildNetFrames()

func buildNetFrames() [][]byte {
	sizes := []int{22, 60, 124, 242}
	frames := make([][]byte, len(sizes))
	for i, size := range sizes {
		f := make([]byte, size)
		for j := 0; j < 6; j++ {
			f[j] = 0xff // broadcast destination
		}
		copy(f[6:12], netMAC[:])
		f[12], f[13] = 0x08, 0x00
		for j := 14; j < size; j++ {
			f[j] = byte(i*31 + j*7)
		}
		frames[i] = f
	}
	return frames
}

var netWorkload = WorkloadDesc{
	Name:    "ne2000",
	Drivers: []string{"ne2000_c", "ne2000_devil"},
	Spec:    "ne2000",
	Bases: map[string]hw.Port{
		"reg":   netRegBase,
		"dma":   netDataBase,
		"reset": netResetBase,
	},
	Build: func(r *Rig) (any, error) {
		nic := ne2000.New()
		if err := r.Bus.Map(netRegBase, 16, nic.Registers()); err != nil {
			return nil, err
		}
		if err := r.Bus.Map(netDataBase, 1, nic.DataPort()); err != nil {
			return nil, err
		}
		if err := r.Bus.Map(netResetBase, 1, nic.ResetPort()); err != nil {
			return nil, err
		}
		return nic, nil
	},
	// ne2000.NIC.Reset is the cold power-on reset (packet memory
	// included), distinct from the warm reset the reset port performs.
	Reset: func(dev any) { dev.(*ne2000.NIC).Reset() },
	Snapshot: func(dev, snap any) any {
		s, _ := snap.(*ne2000.State)
		if s == nil {
			s = &ne2000.State{}
		}
		dev.(*ne2000.NIC).Snapshot(s)
		return s
	},
	Restore: func(dev, snap any) { dev.(*ne2000.NIC).Restore(snap.(*ne2000.State)) },
	Run:     runNetBoot,
}

// runNetBoot drives the packet round trip: initialise the driver, push
// the frame script through the transmit path (internal loopback delivers
// each frame into the receive ring), then drain the ring and audit every
// payload byte. The kernel — not the driver — holds the expected bytes,
// so a driver that corrupts, truncates, reorders or invents frames is
// caught as visible damage.
func runNetBoot(r *Rig, ex Engine, res *BootResult) (error, bool) {
	kern, nic := r.Kern, r.Dev.(*ne2000.NIC)
	ret, err := ex.Call("net_init")
	if err != nil {
		return err, false
	}
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		return kern.Panic("ne2000: initialisation failed"), false
	}
	if nic.MAC() != netMAC {
		kern.Printk("ne2000: warning: station address not programmed")
	}
	damaged := false
	for i, f := range netFrames {
		copy(kern.Buf(), f)
		v, err := ex.Call("net_send", cinterp.IntValue(int64(len(f))))
		if err != nil {
			return err, false
		}
		if v.Kind == cinterp.ValInt && v.I != 0 {
			kern.Printk(fmt.Sprintf("ne2000: frame %d transmit failed", i))
			damaged = true
		}
	}
	for i, f := range netFrames {
		v, err := ex.Call("net_recv")
		if err != nil {
			return err, false
		}
		if v.I != int64(len(f)) {
			kern.Printk(fmt.Sprintf(
				"ne2000: frame %d corrupt: got length %d, expected %d", i, v.I, len(f)))
			damaged = true
			continue
		}
		if !bytes.Equal(kern.Buf()[:len(f)], f) {
			kern.Printk(fmt.Sprintf("ne2000: frame %d payload corrupt", i))
			damaged = true
		}
	}
	v, err := ex.Call("net_recv")
	if err != nil {
		return err, false
	}
	if v.Kind == cinterp.ValInt && v.I != 0 {
		kern.Printk("ne2000: phantom frame after drain")
		damaged = true
	}
	kern.Printk("ne2000: packet round trip complete")
	return nil, damaged
}
