package dtu

import (
	"bytes"
	"fmt"
	"testing"

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
