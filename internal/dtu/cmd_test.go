package dtu

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// TestRoundTripAllocs is the allocation guard of the DTU message path: once
// the command pools are warm, a SEND→FETCH→REPLY→FETCH→ACK round trip
// between two tiles allocates nothing but the DTU's copies of the two
// payloads (the SEND's and the REPLY's).
func TestRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		payload int
		want    float64
	}{{0, 0}, {64, 2}} {
		t.Run(fmt.Sprintf("payload=%d", tc.payload), func(t *testing.T) {
			r := newRig(t, true)
			setupChannel(r, actB, 4)
			data := make([]byte, tc.payload)
			target, done := 0, 0
			var client, server *sim.Proc
			r.d0.OnMsgArrived = func(ActID) { client.Wake() }
			r.d1.OnMsgArrived = func(ActID) { server.Wake() }
			client = r.eng.Spawn("client", func(p *sim.Proc) {
				for {
					for done >= target {
						p.Park()
					}
					if err := r.d0.Send(p, SendArgs{Ep: 10, Data: data, ReplyEp: 11}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					for !r.d0.HasUnread(11) {
						p.Park()
					}
					slot, _, err := r.d0.Fetch(p, 11)
					if err == nil {
						err = r.d0.Ack(p, 11, slot)
					}
					if err != nil {
						t.Errorf("fetch/ack reply: %v", err)
						return
					}
					done++
				}
			})
			server = r.eng.Spawn("server", func(p *sim.Proc) {
				for {
					for !r.d1.HasUnread(20) {
						p.Park()
					}
					slot, _, err := r.d1.Fetch(p, 20)
					if err == nil {
						err = r.d1.Reply(p, 20, slot, data, 0)
					}
					if err != nil {
						t.Errorf("fetch/reply: %v", err)
						return
					}
				}
			})
			roundTrip := func() {
				target++
				client.Wake()
				r.eng.Run()
				if done != target {
					t.Fatalf("round trip %d did not complete", target)
				}
			}
			r.eng.Run() // both processes reach their first Park
			for i := 0; i < 8; i++ {
				roundTrip() // warm the command, packet and event pools
			}
			if got := testing.AllocsPerRun(100, roundTrip); got != tc.want {
				t.Errorf("round trip with %d-byte payloads allocates %.1f, want %.0f", tc.payload, got, tc.want)
			}
		})
	}
}

// TestDroppedMemoryTransferTimesOut: with a finite NoC retry budget, a READ
// or WRITE whose request or answer the NoC drops for good completes with
// ErrXferTimeout and is retried like a SEND, instead of parking the issuer
// forever. At drop rate 1 every attempt is lost and the retry budget runs
// out; at rate 0.5 some requests and some answers are lost, and every
// command still returns.
func TestDroppedMemoryTransferTimesOut(t *testing.T) {
	for _, rate := range []float64{1, 0.5} {
		t.Run(fmt.Sprintf("drop=%v", rate), func(t *testing.T) {
			r := newLossyRig(t, fault.Config{Seed: 3, NoCDrop: rate})
			must(r.d0.ConfigureLocal(0, MemEP(ActInvalid, 2, 0, 1<<16, PermRW)))
			const ops = 20
			returned := 0
			var okWrites, okReads int
			r.run(func(p *sim.Proc) {
				want := []byte("payload")
				for i := 0; i < ops; i++ {
					off := uint64(i) * 64
					err := r.d0.Write(p, 0, off, want, 0)
					if err == nil {
						okWrites++
					} else if !errors.Is(err, ErrXferTimeout) {
						t.Errorf("write %d: %v, want nil or ErrXferTimeout", i, err)
					}
					got, err := r.d0.Read(p, 0, off, len(want), 0)
					switch {
					case err == nil:
						okReads++
						if okWrites > 0 && len(got) != len(want) {
							t.Errorf("read %d: %d bytes, want %d", i, len(got), len(want))
						}
					case !errors.Is(err, ErrXferTimeout):
						t.Errorf("read %d: %v, want nil or ErrXferTimeout", i, err)
					}
					returned++
				}
			})
			if returned != ops {
				t.Fatalf("%d of %d READ/WRITE pairs returned; the issuer stayed parked", returned, ops)
			}
			if rate == 1 && (okWrites != 0 || okReads != 0) {
				t.Errorf("at drop rate 1: %d writes and %d reads succeeded, want none", okWrites, okReads)
			}
			if rate < 1 && okReads == 0 {
				t.Error("at drop rate 0.5 no read succeeded")
			}
		})
	}
}

// newLossyRig is newRig with a NoC that gives up on a packet after one
// attempt and an injector armed on the network and every DTU.
func newLossyRig(t *testing.T, cfg fault.Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	nc := noc.DefaultConfig()
	nc.MaxRetries = 1
	net := noc.New(eng, noc.StarMesh{NumTiles: 4}, nc)
	r := &rig{eng: eng, net: net}
	r.d0 = New(eng, net, 0, sim.MHz(80), true)
	r.d1 = New(eng, net, 1, sim.MHz(80), true)
	r.dram = mem.New(eng, mem.DefaultConfig(1<<20))
	r.dm = NewMemory(eng, net, 2, r.dram)
	inj := fault.New(eng, cfg)
	net.SetInjector(inj)
	for _, d := range []*DTU{r.d0, r.d1, r.dm} {
		d.SetInjector(inj)
	}
	t.Cleanup(func() { eng.Shutdown() })
	return r
}

// TestWriteBufferIsACopy: the DTU copies WRITE data when the command is
// issued, so the caller may reuse its buffer as soon as Write returns, and
// a pooled record's buffer never leaks one write's bytes into the next.
func TestWriteBufferIsACopy(t *testing.T) {
	r := newRig(t, true)
	must(r.d0.ConfigureLocal(0, MemEP(ActInvalid, 2, 0, 1<<16, PermRW)))
	r.run(func(p *sim.Proc) {
		buf := []byte("first!")
		must(r.d0.Write(p, 0, 0, buf, 0))
		copy(buf, "second")
		must(r.d0.Write(p, 0, 64, buf[:3], 0))
	})
	if got := r.dram.ReadAt(0, 6); !bytes.Equal(got, []byte("first!")) {
		t.Errorf("first write stored %q, want %q", got, "first!")
	}
	if got := r.dram.ReadAt(64, 6); !bytes.Equal(got, []byte("sec\x00\x00\x00")) {
		t.Errorf("second write stored %q, want %q", got, "sec")
	}
}
