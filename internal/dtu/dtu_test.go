package dtu

import (
	"bytes"
	"errors"
	"testing"

	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// rig is a two-processing-tile + one-memory-tile test fixture.
type rig struct {
	eng  *sim.Engine
	net  *noc.Network
	d0   *DTU // tile 0, vDTU
	d1   *DTU // tile 1, vDTU
	dm   *DTU // tile 2, memory tile
	dram *mem.Memory
}

func newRig(t *testing.T, virt bool) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.New(eng, noc.StarMesh{NumTiles: 4})
	r := &rig{
		eng:  eng,
		net:  net,
		d0:   New(eng, net, 0, sim.MHz(80), virt),
		d1:   New(eng, net, 1, sim.MHz(80), virt),
		dram: mem.New(eng, mem.DefaultConfig(1<<20)),
	}
	r.dm = NewMemory(eng, net, 2, r.dram)
	t.Cleanup(func() { eng.Shutdown() })
	return r
}

// run executes fns as processes and drives the simulation to completion,
// capped at one simulated minute as a deadlock guard.
func (r *rig) run(fns ...func(p *sim.Proc)) {
	for _, fn := range fns {
		r.eng.Spawn("test", fn)
	}
	r.eng.RunUntil(60 * sim.Second)
}

const (
	actA ActID = 1
	actB ActID = 2
)

// setupChannel configures a send EP on d0 (ep 10, owned by actA) pointing at
// a receive EP on d1 (ep 20, owned by the given receiver activity), plus a
// reply receive EP on d0 (ep 11).
func setupChannel(r *rig, recvAct ActID, credits int) {
	r.d0.SetCurAct(actA)
	r.d1.SetCurAct(recvAct)
	must(r.d0.ConfigureLocal(10, SendEP(actA, 1, 20, 0x1234, credits, 256)))
	must(r.d0.ConfigureLocal(11, RecvEP(actA, 4, 256)))
	must(r.d1.ConfigureLocal(20, RecvEP(recvAct, 4, 256)))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestSendFetchReplyAckRoundTrip(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	var replyData []byte
	r.run(func(p *sim.Proc) {
		// Sender on tile 0.
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("ping"), ReplyEp: 11, ReplyLabel: 0x99})
		if err != nil {
			t.Errorf("send: %v", err)
			return
		}
		// Wait for and fetch the reply.
		for !r.d0.HasUnread(11) {
			p.Sleep(sim.Microsecond)
		}
		slot, m, err := r.d0.Fetch(p, 11)
		if err != nil {
			t.Errorf("fetch reply: %v", err)
			return
		}
		if m.Label != 0x99 {
			t.Errorf("reply label = %#x, want 0x99", m.Label)
		}
		replyData = m.Data
		if err := r.d0.Ack(p, 11, slot); err != nil {
			t.Errorf("ack reply: %v", err)
		}
	}, func(p *sim.Proc) {
		// Receiver on tile 1.
		for !r.d1.HasUnread(20) {
			p.Sleep(sim.Microsecond)
		}
		slot, m, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if string(m.Data) != "ping" {
			t.Errorf("payload = %q, want ping", m.Data)
		}
		if m.Label != 0x1234 {
			t.Errorf("label = %#x, want 0x1234", m.Label)
		}
		if err := r.d1.Reply(p, 20, slot, []byte("pong"), 0); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	if !bytes.Equal(replyData, []byte("pong")) {
		t.Errorf("reply data = %q, want pong", replyData)
	}
	// The reply must have returned the send credit.
	if ep := r.d0.Ep(10); ep.Credits != 4 {
		t.Errorf("credits after RPC = %d, want 4", ep.Credits)
	}
}

func TestCreditsExhaustionAndReturn(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 2)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); !errors.Is(err, ErrNoCredits) {
			t.Errorf("third send err = %v, want ErrNoCredits", err)
		}
	}, func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		// Receiver acks both messages, returning the credits.
		for i := 0; i < 2; i++ {
			slot, _, err := r.d1.Fetch(p, 20)
			if err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
			if err := r.d1.Ack(p, 20, slot); err != nil {
				t.Fatalf("ack %d: %v", i, err)
			}
		}
	})
	if ep := r.d0.Ep(10); ep.Credits != 2 {
		t.Errorf("credits after acks = %d, want 2", ep.Credits)
	}
}

func TestEndpointProtectionWrongActivity(t *testing.T) {
	// Paper §3.5: using another activity's endpoint yields "unknown
	// endpoint".
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.d0.SetCurAct(actB) // actB now runs on tile 0; EP 10 belongs to actA
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); !errors.Is(err, ErrUnknownEp) {
			t.Errorf("send err = %v, want ErrUnknownEp", err)
		}
		if _, _, err := r.d0.Fetch(p, 11); !errors.Is(err, ErrUnknownEp) {
			t.Errorf("fetch err = %v, want ErrUnknownEp", err)
		}
	})
}

func TestVDTUDeliversToNonRunningActivity(t *testing.T) {
	// Paper §3.8: the vDTU knows all endpoints of all activities and stores
	// messages regardless of who is running, raising a core request.
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.d1.SetCurAct(actA) // actB (owner of EP 20) is NOT running on tile 1
	coreReqs := 0
	r.d1.OnCoreReq = func() { coreReqs++ }
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); err != nil {
			t.Errorf("send to non-running activity: %v", err)
		}
	})
	if coreReqs != 1 {
		t.Errorf("core requests = %d, want 1", coreReqs)
	}
	r.eng.Spawn("mux", func(p *sim.Proc) {
		act, _, ok := r.d1.FetchCoreReq(p)
		if !ok || act != actB {
			t.Errorf("core req = (%v,%v), want (actB,true)", act, ok)
		}
		r.d1.AckCoreReq(p)
	})
	r.eng.Run()
	if r.d1.PendingCoreReqs() != 0 {
		t.Errorf("pending core reqs = %d, want 0", r.d1.PendingCoreReqs())
	}
}

func TestPlainDTURejectsNonRunningRecipient(t *testing.T) {
	// M³x behaviour (paper §2.2): with a non-virtualized DTU, the message
	// cannot be delivered if the recipient is not current; the sender gets
	// ErrNoRecipient and must take the slow path.
	r := newRig(t, false)
	setupChannel(r, actB, 4)
	r.d1.SetCurAct(actA) // actB not running
	r.run(func(p *sim.Proc) {
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1})
		if !errors.Is(err, ErrNoRecipient) {
			t.Errorf("send err = %v, want ErrNoRecipient", err)
		}
	})
	// The failed send must have restored the credit.
	if ep := r.d0.Ep(10); ep.Credits != 4 {
		t.Errorf("credits after failed send = %d, want 4", ep.Credits)
	}
}

func TestReceiveBufferBackpressure(t *testing.T) {
	// Filling all 4 slots NACKs the 5th message at the NoC level until a
	// slot frees up.
	r := newRig(t, true)
	setupChannel(r, actB, 8)
	delivered := 0
	r.run(func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte{byte(i)}, ReplyEp: -1}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
			delivered++
		}
	}, func(p *sim.Proc) {
		// Drain one slot after the buffer has filled.
		p.Sleep(2 * sim.Millisecond)
		slot, _, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if err := r.d1.Ack(p, 20, slot); err != nil {
			t.Fatalf("ack: %v", err)
		}
	})
	if delivered != 5 {
		t.Errorf("delivered = %d, want 5", delivered)
	}
	if r.d1.NackedDeliveries() == 0 {
		t.Error("expected NACKed deliveries under buffer pressure")
	}
}

func TestTLBMissFailsCommand(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		// actA has no translation for vaddr 0x5000.
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), Vaddr: 0x5000, ReplyEp: -1})
		if !errors.Is(err, ErrTLBMiss) {
			t.Fatalf("send err = %v, want ErrTLBMiss", err)
		}
		// TileMux inserts the translation; the retry succeeds.
		r.d0.InsertTLB(p, actA, 0x5000, 0x84000, PermRW)
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), Vaddr: 0x5000, ReplyEp: -1}); err != nil {
			t.Errorf("retry after TLB fill: %v", err)
		}
	})
	if r.d0.TLB().Misses != 1 || r.d0.TLB().Hits != 1 {
		t.Errorf("TLB hits/misses = %d/%d, want 1/1", r.d0.TLB().Hits, r.d0.TLB().Misses)
	}
}

func TestPageBoundaryRestriction(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		r.d0.InsertTLB(p, actA, 0x5000, 0x84000, PermRW)
		data := make([]byte, 64)
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: data, Vaddr: 0x5FE0, ReplyEp: -1})
		if !errors.Is(err, ErrPageBoundary) {
			t.Errorf("cross-page send err = %v, want ErrPageBoundary", err)
		}
	})
}

func TestMemoryEndpointReadWrite(t *testing.T) {
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermRW)))
	r.run(func(p *sim.Proc) {
		data := []byte("persistent data in dram")
		if err := r.d0.Write(p, 8, 0x100, data, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := r.d0.Read(p, 8, 0x100, len(data), 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("read back %q, want %q", got, data)
		}
	})
	// The bytes must be at DRAM offset MemBase+0x100.
	if got := r.dram.ReadAt(0x1100, 4); !bytes.Equal(got, []byte("pers")) {
		t.Errorf("dram content = %q, want pers", got)
	}
}

func TestMemoryEndpointBoundsAndPerms(t *testing.T) {
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermR)))
	r.run(func(p *sim.Proc) {
		if err := r.d0.Write(p, 8, 0, []byte("x"), 0); !errors.Is(err, ErrNoPerm) {
			t.Errorf("write to read-only EP err = %v, want ErrNoPerm", err)
		}
		if _, err := r.d0.Read(p, 8, 0x1FFF, 2, 0); !errors.Is(err, ErrNoPerm) {
			t.Errorf("out-of-bounds read err = %v, want ErrNoPerm", err)
		}
		if _, err := r.d0.Read(p, 8, 0, 100, 0); err != nil {
			t.Errorf("legal read: %v", err)
		}
	})
}

func TestCheckPMP(t *testing.T) {
	r := newRig(t, true)
	must(r.d0.ConfigureLocal(0, MemEP(ActTileMux, 2, 0x0000, 0x10000, PermRW)))
	must(r.d0.ConfigureLocal(1, MemEP(actA, 2, 0x20000, 0x10000, PermR)))
	if _, _, err := r.d0.CheckPMP(0x8000, 64, PermRW); err != nil {
		t.Errorf("PMP over EP0: %v", err)
	}
	if _, _, err := r.d0.CheckPMP(0x20000, 64, PermR); err != nil {
		t.Errorf("PMP over EP1: %v", err)
	}
	if _, _, err := r.d0.CheckPMP(0x20000, 64, PermW); !errors.Is(err, ErrNoPerm) {
		t.Errorf("PMP write to RO region err = %v, want ErrNoPerm", err)
	}
	if _, _, err := r.d0.CheckPMP(0x40000, 64, PermR); !errors.Is(err, ErrNoPerm) {
		t.Errorf("PMP outside any region err = %v, want ErrNoPerm", err)
	}
}

func TestSwitchActAtomicCounts(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("m1"), ReplyEp: -1}); err != nil {
			t.Fatal(err)
		}
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("m2"), ReplyEp: -1}); err != nil {
			t.Fatal(err)
		}
	}, func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		// Tile 1 currently runs actB with 2 unread messages.
		if act, msgs := r.d1.CurAct(); act != actB || msgs != 2 {
			t.Errorf("CUR_ACT = (%v,%d), want (actB,2)", act, msgs)
		}
		old, msgs := r.d1.SwitchAct(p, actA, 0)
		if old != actB || msgs != 2 {
			t.Errorf("SwitchAct returned (%v,%d), want (actB,2)", old, msgs)
		}
		// Switching back restores the saved count.
		r.d1.SwitchAct(p, actB, msgs)
		if act, m := r.d1.CurAct(); act != actB || m != 2 {
			t.Errorf("after switch back CUR_ACT = (%v,%d), want (actB,2)", act, m)
		}
	})
}

func TestCoreReqQueueOverrunBackpressure(t *testing.T) {
	// More simultaneous messages for non-running activities than core
	// request slots: the extra deliveries are NACKed and retried after
	// TileMux drains the queue.
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	r.d1.SetCurAct(ActTileMux)
	// 6 receive EPs for 6 different non-running activities.
	for i := 0; i < 6; i++ {
		must(r.d0.ConfigureLocal(EpID(30+i), SendEP(actA, 1, EpID(40+i), 0, 1, 64)))
		must(r.d1.ConfigureLocal(EpID(40+i), RecvEP(ActID(10+i), 2, 64)))
	}
	irqs := 0
	r.d1.OnCoreReq = func() { irqs++ }
	r.run(func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := r.d0.Send(p, SendArgs{Ep: EpID(30 + i), Data: []byte("x"), ReplyEp: -1}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}, func(p *sim.Proc) {
		// TileMux drains core requests slowly.
		for drained := 0; drained < 6; {
			if _, _, ok := r.d1.FetchCoreReq(p); ok {
				r.d1.AckCoreReq(p)
				drained++
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
	if r.d1.NackedDeliveries() == 0 {
		t.Error("expected NACKs from core-request queue overrun")
	}
	if r.d1.PendingCoreReqs() != 0 {
		t.Errorf("pending core reqs = %d, want 0", r.d1.PendingCoreReqs())
	}
}

func TestExternalRemoteConfiguration(t *testing.T) {
	r := newRig(t, true)
	r.run(func(p *sim.Proc) {
		// The controller (modelled from tile 0) configures tile 1's EP 5.
		conf := SendEP(actB, 0, 7, 0xABC, 3, 128)
		if err := r.d0.ConfigureRemote(p, 1, 5, conf); err != nil {
			t.Fatalf("remote config: %v", err)
		}
		got := r.d1.Ep(5)
		if got.Kind != EpSend || got.Label != 0xABC || got.Credits != 3 {
			t.Errorf("remote EP = %+v", got)
		}
		if err := r.d0.InvalidateRemote(p, 1, 5); err != nil {
			t.Fatalf("remote invalidate: %v", err)
		}
		if got := r.d1.Ep(5); got.Kind != EpInvalid {
			t.Errorf("EP after invalidate = %v, want invalid", got.Kind)
		}
	})
}

func TestReadEpsRemote(t *testing.T) {
	r := newRig(t, true)
	must(r.d1.ConfigureLocal(10, SendEP(actA, 0, 1, 0x11, 2, 64)))
	must(r.d1.ConfigureLocal(11, RecvEP(actA, 4, 64)))
	r.run(func(p *sim.Proc) {
		eps := r.d0.ReadEpsRemote(p, 1, 10, 2, nil)
		if len(eps) != 2 {
			t.Fatalf("got %d EPs, want 2", len(eps))
		}
		if eps[0].Kind != EpSend || eps[1].Kind != EpReceive {
			t.Errorf("kinds = %v,%v", eps[0].Kind, eps[1].Kind)
		}
	})
}

func TestReplyWithoutReplyEpFails(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("oneway"), ReplyEp: -1}); err != nil {
			t.Fatal(err)
		}
	}, func(p *sim.Proc) {
		p.Sleep(time2ms)
		slot, _, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.d1.Reply(p, 20, slot, []byte("r"), 0); !errors.Is(err, ErrInvalidArgs) {
			t.Errorf("reply to one-way msg err = %v, want ErrInvalidArgs", err)
		}
	})
}

const time2ms = 2 * sim.Millisecond

func TestMessageTooLarge(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		big := make([]byte, 300) // EP max is 256
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: big, ReplyEp: -1}); !errors.Is(err, ErrMsgTooLarge) {
			t.Errorf("oversized send err = %v, want ErrMsgTooLarge", err)
		}
	})
}

func TestFetchEmptyReturnsNoMessage(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(nil2(func(p *sim.Proc) {
		r.d1.SetCurAct(actB)
		if _, _, err := r.d1.Fetch(p, 20); !errors.Is(err, ErrNoMessage) {
			t.Errorf("fetch empty err = %v, want ErrNoMessage", err)
		}
	}))
}

func nil2(f func(p *sim.Proc)) func(p *sim.Proc) { return f }
