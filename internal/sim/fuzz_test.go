package sim

import (
	"testing"
)

// FuzzEngineOrdering checks the engine's core scheduling contract against
// arbitrary schedules decoded from the fuzz input:
//
//   - events execute in (timestamp, insertion order): same-timestamp events
//     run in the order they were scheduled, including events inserted from
//     handler context at the current time;
//   - the clock inside a handler equals the event's timestamp and never
//     moves backwards;
//   - RunUntil(limit) executes exactly the events with timestamps <= limit
//     and leaves the clock at limit when later events remain queued;
//   - scheduling in the past always panics.
//
// Each input byte encodes one scheduled event: the low three bits pick the
// timestamp from a tiny range (forcing many same-timestamp collisions), bit
// 3 makes the handler schedule a follow-up event, and bit 4 makes it attempt
// a past-time schedule (which must panic).
func FuzzEngineOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 3, 3, 5, 1, 0, 7, 2})
	f.Add([]byte{0x08, 0x0f, 0x10, 0x1f, 0x00})
	f.Add([]byte{1, 0x09, 2, 0x12, 3, 0x1b, 4})
	// Same-time ring boundary: delta-0 follow-ups scheduled from handler
	// context while the ring is draining, mixed with checks that scheduling
	// in the past panics. These pin the insertion-order rule exactly at the
	// ring's wrap edge.
	f.Add([]byte{0x0c, 0x04, 0x0c, 0x04, 0x8c})
	f.Add([]byte{0x88, 0x08, 0x88, 0x00})
	f.Add([]byte{0x0f, 0x07, 0x8f, 0x07, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		e := NewEngine()

		type rec struct {
			at  Time
			seq uint64
		}
		var executed []rec
		sched := 0
		var schedule func(at Time, b byte)
		schedule = func(at Time, b byte) {
			sched++
			seq := e.seq + 1 // At assigns the next sequence number
			e.At(at, func() {
				if e.Now() != at {
					t.Fatalf("handler clock = %v, want %v", e.Now(), at)
				}
				executed = append(executed, rec{at, seq})
				if b&0x08 != 0 {
					// Schedule a follow-up from handler context, possibly at
					// the current instant (delta 0 exercises the same-time
					// insertion-order rule mid-execution).
					schedule(at+Time(b&0x03)*Nanosecond, b>>4)
				}
				if b&0x10 != 0 && at > 0 {
					// Scheduling in the past must panic, from any context.
					func() {
						defer func() {
							if recover() == nil {
								t.Fatal("At in the past did not panic")
							}
						}()
						e.At(at-Picosecond, func() {})
					}()
				}
			})
		}
		for _, b := range data {
			schedule(Time(b&0x07)*Nanosecond, b)
		}

		limit := 3 * Nanosecond
		end := e.RunUntil(limit)
		for _, r := range executed {
			if r.at > limit {
				t.Fatalf("RunUntil(%v) executed event at %v", limit, r.at)
			}
		}
		if e.Pending() > 0 {
			if end != limit || e.Now() != limit {
				t.Fatalf("RunUntil with pending events: end=%v now=%v, want %v",
					end, e.Now(), limit)
			}
		}

		e.Run()
		if len(executed) != sched {
			t.Fatalf("executed %d of %d scheduled events", len(executed), sched)
		}
		for i := 1; i < len(executed); i++ {
			a, b := executed[i-1], executed[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("order violated at %d: (%v,%d) before (%v,%d)",
					i, a.at, a.seq, b.at, b.seq)
			}
		}
	})
}

// TestMaxTime verifies that events scheduled at the far-future sentinel are
// still executed by Run, which must process every timestamp <= MaxTime.
func TestMaxTime(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(MaxTime, func() { fired = true })
	end := e.Run()
	if !fired {
		t.Error("event at MaxTime did not fire")
	}
	if end != MaxTime {
		t.Errorf("Run returned %v, want MaxTime", end)
	}
	if e.Now() != MaxTime {
		t.Errorf("Now = %v, want MaxTime", e.Now())
	}
}
