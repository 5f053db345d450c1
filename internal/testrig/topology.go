package testrig

import (
	"fmt"

	"strom/internal/chaos"
	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/hostmem"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
	"strom/internal/telemetry/export"
)

// Net is the switched multi-machine testbed: N machines hanging off the
// ports of one shared-buffer switch, all on one engine. It generalises
// Pair past two machines.
type Net struct {
	SwEng    *sim.Engine // the testbed's engine (every machine shares it)
	Sw       *fabric.Switch
	Machines []*NetMachine
}

// NetMachine is one machine of the switched testbed.
type NetMachine struct {
	Index int
	Eng   *sim.Engine // the testbed's one shared engine (== Net.SwEng)
	NIC   *core.NIC
	Port  *fabric.Port // NIC-side switch attachment (PFC pause state)
	Buf   *hostmem.Buffer

	nextQPN uint32
}

// NewNet builds a switched testbed with n machines on one engine.
func NewNet(seed int64, n int, cfg core.Config, swCfg fabric.SwitchConfig, bufBytes int) (*Net, error) {
	eng := sim.NewEngine(seed)
	sw := fabric.NewSwitchCfg(eng, swCfg)
	net := &Net{SwEng: eng, Sw: sw}
	for i := 0; i < n; i++ {
		id := roce.Identity{
			MAC: packet.MAC{2, 0, 0, 0, 0, byte(i + 1)},
			IP:  packet.AddrOf(10, 0, 0, byte(i+1)),
		}
		nic := core.NewNIC(eng, cfg, id)
		port := sw.AttachPort(id.MAC, nic)
		nic.SetTransmit(port.Send)
		buf, err := nic.AllocBuffer(bufBytes)
		if err != nil {
			return nil, fmt.Errorf("testrig: %w", err)
		}
		net.Machines = append(net.Machines, &NetMachine{
			Index: i, Eng: eng, NIC: nic, Port: port, Buf: buf, nextQPN: 1,
		})
	}
	return net, nil
}

// Connect creates a queue pair between machines i and j, returning the
// QPNs assigned on each side (sequential per machine, starting at 1).
func (n *Net) Connect(i, j int) (qpi, qpj uint32, err error) {
	mi, mj := n.Machines[i], n.Machines[j]
	qpi, qpj = mi.nextQPN, mj.nextQPN
	mi.nextQPN++
	mj.nextQPN++
	if err := mi.NIC.CreateQP(qpi, mj.NIC.Identity(), qpj); err != nil {
		return 0, 0, fmt.Errorf("testrig: %w", err)
	}
	if err := mj.NIC.CreateQP(qpj, mi.NIC.Identity(), qpi); err != nil {
		return 0, 0, fmt.Errorf("testrig: %w", err)
	}
	return qpi, qpj, nil
}

// ReconnectPair re-establishes a queue pair between machines i and j
// after a failure: both ends are reset (flushing anything outstanding)
// and reconnected with fresh PSNs. Like Pair.ReconnectPair it fails
// with roce.ErrPeerCrashed while either machine is down — callers retry
// under backoff until the peer restarts. Note rkeys rotate on restart:
// re-exchange them after a successful reconnect.
func (n *Net) ReconnectPair(i, j int, qpi, qpj uint32) error {
	mi, mj := n.Machines[i], n.Machines[j]
	if mi.NIC.Crashed() {
		return fmt.Errorf("%w: m%d is down", roce.ErrPeerCrashed, i)
	}
	if mj.NIC.Crashed() {
		return fmt.Errorf("%w: m%d is down", roce.ErrPeerCrashed, j)
	}
	if err := mj.NIC.Stack().ResetQP(qpj); err != nil {
		return err
	}
	if err := mi.NIC.Stack().ResetQP(qpi); err != nil {
		return err
	}
	if err := mj.NIC.Stack().ReconnectQP(qpj); err != nil {
		return err
	}
	return mi.NIC.Stack().ReconnectQP(qpi)
}

// EnableDCQCN turns the DCQCN loop on for every machine's stack.
func (n *Net) EnableDCQCN(cfg roce.DCQCNConfig) {
	for _, m := range n.Machines {
		m.NIC.Stack().EnableDCQCN(cfg)
	}
}

// AttachCheckers attaches a protocol invariant checker to every
// machine's stack; call each checker's Finish after the run.
func (n *Net) AttachCheckers() []*chaos.Checker {
	cs := make([]*chaos.Checker, len(n.Machines))
	for i, m := range n.Machines {
		cs[i] = chaos.AttachChecker(m.NIC.Stack(), fmt.Sprintf("m%d", i), m.Eng)
	}
	return cs
}

// RecordJSONL registers every health surface with a JSONL recorder:
// each machine's NIC and NIC-side switch port, then every switch port.
func (n *Net) RecordJSONL(rec *export.Recorder) {
	for i, m := range n.Machines {
		host := fmt.Sprintf("m%d", i)
		rec.Source(m.Eng, host, "port", "nic:"+host, m.NIC.Health)
		rec.Source(m.Eng, host, "port", fmt.Sprintf("uplink:%d", i), m.Port.Health)
	}
	for i := 0; i < n.Sw.NumPorts(); i++ {
		rec.Source(n.SwEng, "switch", "port", fmt.Sprintf("sw:%d", i), n.Sw.PortHealth(i))
	}
}

// Run executes the testbed to completion and returns the final
// simulated time.
func (n *Net) Run() sim.Time { return n.SwEng.Run() }
