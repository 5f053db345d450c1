package testrig

import (
	"bytes"
	"errors"
	"testing"

	"strom/internal/core"
	"strom/internal/fabric"
	"strom/internal/roce"
	"strom/internal/sim"
)

func netSwitch() fabric.SwitchConfig {
	return fabric.SwitchConfig{Link: fabric.DirectCable10G(), Forwarding: 500 * sim.Nanosecond}
}

// Every machine of a Net and its switch share one engine, and Connect
// numbers each machine's queue pairs 1, 2, 3, ... in connection order.
func TestNewNetOneEngineSequentialQPNs(t *testing.T) {
	const n = 4
	net, err := NewNet(3, n, core.Profile10G(), netSwitch(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Machines) != n || net.Sw.NumPorts() != n {
		t.Fatalf("got %d machines on %d switch ports, want %d", len(net.Machines), net.Sw.NumPorts(), n)
	}
	for i, m := range net.Machines {
		if m.Index != i {
			t.Errorf("machine %d has Index %d", i, m.Index)
		}
		if m.Eng != net.SwEng || m.NIC.Engine() != net.SwEng {
			t.Errorf("machine %d is not on the shared engine", i)
		}
	}
	want := []struct {
		i, j     int
		qpi, qpj uint32
	}{
		{0, 1, 1, 1},
		{0, 2, 2, 1},
		{1, 2, 2, 2},
		{3, 0, 1, 3},
	}
	for _, w := range want {
		qpi, qpj, err := net.Connect(w.i, w.j)
		if err != nil {
			t.Fatalf("Connect(%d, %d): %v", w.i, w.j, err)
		}
		if qpi != w.qpi || qpj != w.qpj {
			t.Errorf("Connect(%d, %d) = (%d, %d), want (%d, %d)", w.i, w.j, qpi, qpj, w.qpi, w.qpj)
		}
	}
}

// A WRITE from A into B's buffer followed by a READ of the same range
// back into a fresh region of A returns the bytes that were written.
func TestPairWriteThenReadRoundTrip(t *testing.T) {
	pair, err := New(5, core.Profile10G(), fabric.DirectCable10G(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const size = 6000 // spans several MTU-sized frames
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	src, dst := uint64(pair.BufA.Base()), uint64(pair.BufA.Base())+256<<10
	if err := pair.A.Memory().WriteVirt(pair.BufA.Base(), want); err != nil {
		t.Fatal(err)
	}
	remote := uint64(pair.BufB.Base()) + 4096
	var runErr error
	pair.Eng.Go("client", func(p *sim.Process) {
		if runErr = pair.A.WriteSync(p, QPA, src, remote, size); runErr != nil {
			return
		}
		runErr = pair.A.ReadSync(p, QPA, remote, dst, size)
	})
	pair.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := pair.A.Memory().ReadVirt(pair.BufA.Base()+256<<10, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("READ returned different bytes than the WRITE stored")
	}
}

// ReconnectPair refuses with roce.ErrPeerCrashed while either end of the
// queue pair is down and reconnects once the crashed machine restarts.
func TestNetReconnectPairAcrossCrash(t *testing.T) {
	net, err := NewNet(9, 2, core.Profile10G(), netSwitch(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	qp0, qp1, err := net.Connect(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, down := range []int{0, 1} {
		nic := net.Machines[down].NIC
		nic.Crash()
		if err := net.ReconnectPair(0, 1, qp0, qp1); !errors.Is(err, roce.ErrPeerCrashed) {
			t.Fatalf("m%d down: ReconnectPair = %v, want ErrPeerCrashed", down, err)
		}
		nic.Restart()
		if err := net.ReconnectPair(0, 1, qp0, qp1); err != nil {
			t.Fatalf("m%d restarted: ReconnectPair = %v", down, err)
		}
	}
	net.Run()
}
