package dtu

import (
	"testing"

	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// fnvFold folds one value into an FNV-1a hash (the determinism fingerprint
// of the command fuzz harness).
func fnvFold(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// errCodeOf maps a command result to a stable fingerprint code.
func errCodeOf(err error) uint64 {
	if err == nil {
		return 1
	}
	return 0x100 + uint64(errCode(err))
}

// FuzzDTUCommands drives arbitrary DTU command sequences decoded from the
// fuzz input against a two-tile rig (plain DTUs, both recipients running)
// plus a memory tile, with an optional fault injector armed:
//
//   - no command sequence panics or wedges the simulation: every command
//     returns (possibly with an error) and the run reaches quiescence;
//   - commands fail with the documented error values on bad arguments
//     (oversized messages, empty fetches, exhausted credits) and recover
//     transparently from injected transfer faults;
//   - determinism: replaying the input on a fresh rig reproduces the exact
//     command results and message flow.
//
// Input layout: byte 0 arms the fault injector (rate + seed), every further
// byte is one command (3-bit opcode, 5 bits of operand).
func FuzzDTUCommands(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01, 0x02, 0x03, 0x04})             // one of each, no faults
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x02, 0x02, 0x02})       // faults + sends, then drain
	f.Add([]byte{0x03, 0x06, 0x07, 0x05, 0x00, 0x01, 0x02})       // error paths mixed in
	f.Add([]byte{0x07, 0x00, 0x01, 0x00, 0x01, 0x03, 0x04, 0x02}) // credit pressure under faults

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		run := func() uint64 {
			eng := sim.NewEngine()
			defer eng.Shutdown()
			net := noc.New(eng, noc.StarMesh{NumTiles: 4})
			d0 := New(eng, net, 0, sim.MHz(80), false)
			d1 := New(eng, net, 1, sim.MHz(80), false)
			dram := mem.New(eng, mem.DefaultConfig(1<<20))
			NewMemory(eng, net, 2, dram)

			if len(data) > 0 {
				if rate := float64(data[0]&0x07) / 40; rate > 0 {
					inj := fault.New(eng, fault.Config{Seed: uint64(data[0]), Rate: rate})
					net.SetInjector(inj)
					d0.SetInjector(inj)
					d1.SetInjector(inj)
				}
			}

			d0.SetCurAct(actA)
			d1.SetCurAct(actB)
			must(d0.ConfigureLocal(10, SendEP(actA, 1, 20, 0x1234, 4, 256)))
			must(d0.ConfigureLocal(11, RecvEP(actA, 4, 256)))
			must(d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermRW)))
			must(d1.ConfigureLocal(20, RecvEP(actB, 4, 256)))

			var hash uint64
			ops := data[min(len(data), 1):]
			done := false
			eng.Spawn("driver", func(p *sim.Proc) {
				for i, b := range ops {
					op := b & 0x07
					arg := int(b >> 3)
					var err error
					switch op {
					case 0: // RPC-style send with reply endpoint
						err = d0.Send(p, SendArgs{Ep: 10, Data: []byte{byte(i)}, ReplyEp: 11, ReplyLabel: 0x99})
					case 1: // one-way send
						err = d0.Send(p, SendArgs{Ep: 10, Data: []byte{byte(i)}, ReplyEp: -1})
					case 2: // drain one reply if present
						if d0.HasUnread(11) {
							var slot int
							slot, _, err = d0.Fetch(p, 11)
							if err == nil {
								err = d0.Ack(p, 11, slot)
							}
						}
					case 3: // DRAM write through the memory endpoint
						err = d0.Write(p, 8, uint64(arg)*8, []byte{byte(i), byte(arg)}, 0)
					case 4: // DRAM read back
						_, err = d0.Read(p, 8, uint64(arg)*8, 2, 0)
					case 5: // let the responder catch up
						p.Sleep(sim.Time(arg+1) * 10 * sim.Microsecond)
					case 6: // oversized message: must fail, not wedge
						err = d0.Send(p, SendArgs{Ep: 10, Data: make([]byte, 300), ReplyEp: -1})
					default: // fetch from an empty or wrong endpoint
						_, _, err = d0.Fetch(p, EpID(arg%3)+11)
					}
					hash = fnvFold(hash, uint64(i)<<32|uint64(op)<<16|errCodeOf(err))
				}
				// Give in-flight replies time to land, then stop the echo.
				p.Sleep(10 * sim.Millisecond)
				done = true
			})
			eng.Spawn("echo", func(p *sim.Proc) {
				// Echo server on tile 1: replies to RPCs, acks one-way sends.
				for !done {
					if d1.HasUnread(20) {
						slot, m, err := d1.Fetch(p, 20)
						if err == nil {
							if m.ReplyEp >= 0 {
								err = d1.Reply(p, 20, slot, []byte{2}, 0)
							} else {
								err = d1.Ack(p, 20, slot)
							}
						}
						hash = fnvFold(hash, 0xEC00|errCodeOf(err))
						continue
					}
					p.Sleep(20 * sim.Microsecond)
				}
			})
			eng.RunUntil(5 * sim.Second)
			hash = fnvFold(hash, uint64(net.Delivered())<<32|uint64(net.Nacked())<<8)
			hash = fnvFold(hash, uint64(eng.Now()))
			return hash
		}

		h1 := run()
		h2 := run()
		if h1 != h2 {
			t.Fatalf("replay diverged: %#x vs %#x", h1, h2)
		}
	})
}
