package sim

import (
	"slices"
	"testing"
)

// dispatchRec is one executed event as observed by the equivalence driver.
type dispatchRec struct {
	at  Time
	seq uint64
}

// queue is the surface driveSchedule needs: the engine's scheduling and
// dispatch calls, implemented by both *Engine and refQueue.
type queue interface {
	Now() Time
	lastSeq() uint64
	After(d Time, fn func())
	RunUntil(limit Time) Time
	Run() Time
}

// refQueue is the test-only reference scheduler: a slice kept sorted by
// (at, seq), popped from the front. It is deliberately naive and shares no
// code with the engine's queue (no ringBuf, heapPush/heapPop or evLess), so a
// defect there cannot show up identically on both sides of the comparison.
type refQueue struct {
	now Time
	seq uint64
	evs []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refQueue) Now() Time       { return r.now }
func (r *refQueue) lastSeq() uint64 { return r.seq }

// lastSeq reports the sequence number of the most recently scheduled event.
func (e *Engine) lastSeq() uint64 { return e.seq }

func (r *refQueue) After(d Time, fn func()) {
	r.seq++
	ev := refEvent{at: r.now + d, seq: r.seq, fn: fn}
	i := 0
	for i < len(r.evs) && (r.evs[i].at < ev.at || r.evs[i].at == ev.at && r.evs[i].seq < ev.seq) {
		i++
	}
	r.evs = slices.Insert(r.evs, i, ev)
}

// RunUntil mirrors Engine.RunUntil: dispatch everything due by limit, then
// advance the clock to limit if later events remain queued.
func (r *refQueue) RunUntil(limit Time) Time {
	for len(r.evs) > 0 && r.evs[0].at <= limit {
		ev := r.evs[0]
		r.evs = r.evs[1:]
		r.now = ev.at
		ev.fn()
	}
	if len(r.evs) > 0 && limit > r.now {
		r.now = limit
	}
	return r.now
}

func (r *refQueue) Run() Time { return r.RunUntil(MaxTime) }

// driveSchedule decodes the fuzz input into a schedule of After/RunUntil
// operations, runs it on q, and returns the dispatch order as (at, seq)
// records. The decoding exercises every queue region of the timing wheel:
//
//   - low bytes schedule short deltas (0..63ns): level-0 slots and, from
//     handler context, the same-time ring and the sorted cur run (deltas
//     below the already-drained slot horizon);
//   - 0x80-prefixed bytes schedule scaled deltas up to beyond level 3's
//     17.6s window: coarse levels, cascading, and the overflow heap;
//   - 0xC0-prefixed bytes advance a RunUntil limit and drain up to it,
//     interleaving pops with later pushes (re-anchoring, behind-horizon
//     inserts).
func driveSchedule(q queue, data []byte) []dispatchRec {
	var out []dispatchRec
	var schedule func(d Time, follow byte)
	schedule = func(d Time, follow byte) {
		seq := q.lastSeq() + 1 // After assigns the next sequence number
		q.After(d, func() {
			out = append(out, dispatchRec{q.Now(), seq})
			if follow&0x01 != 0 {
				schedule(0, 0) // same-time ring
			}
			if follow&0x02 != 0 {
				schedule(Nanosecond, 0) // sub-slot delta: cur insert on the wheel
			}
			if follow&0x04 != 0 {
				schedule(100*Nanosecond, 0)
			}
		})
	}
	var limit Time
	for _, b := range data {
		switch b & 0xC0 {
		case 0xC0:
			// Drain up to a moving limit; later bytes keep pushing after the
			// wheel re-anchors.
			limit += Time(b&0x3F+1) * 50 * Nanosecond
			q.RunUntil(limit)
		case 0x80:
			// Scaled far-future delta: shift 20/28/36/44 selects wheel levels
			// 1..3 and, at the top, the overflow heap.
			shift := 20 + uint(b&0x30)>>4*8
			schedule(Time(int64(b&0x0F+1)<<shift), 0)
		default:
			schedule(Time(b&0x3F)*Nanosecond, b>>3)
		}
	}
	q.Run()
	return out
}

// FuzzQueueEquivalence is the differential fuzz target for the engine's
// event queue: any interleaving of After/RunUntil operations must dispatch in
// exactly the same (at, seq) order, and leave the clock at the same time,
// under the timing wheel and the sorted-slice reference. This is the property
// that keeps trace hashes, flow spans, fault schedules, and the golden
// figures deterministic.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57})             // spread over L0 slots
	f.Add([]byte{0x0B, 0x13, 0x0B, 0xC1, 0x0B, 0x13})       // follow-ups + drain step
	f.Add([]byte{0x80, 0x91, 0xA2, 0xB3, 0x01, 0xC4, 0x01}) // all coarse levels + overflow
	f.Add([]byte{0xBF, 0x01, 0xC1, 0x01, 0xBF, 0xC1})       // overflow heap vs near events
	f.Add([]byte{0xC1, 0x3F, 0xC1, 0x3F, 0xC1})             // re-anchor after drains
	f.Add([]byte{0x1F, 0x1F, 0x1F, 0x1F, 0xC2, 0x9F, 0x0F}) // cascade with pending cur

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		ref := &refQueue{}
		want := driveSchedule(ref, data)
		e := NewEngine()
		got := driveSchedule(e, data)
		if len(got) != len(want) {
			t.Fatalf("dispatch count differs: wheel %d, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dispatch %d differs: wheel (%v, %d), reference (%v, %d)",
					i, got[i].at, got[i].seq, want[i].at, want[i].seq)
			}
		}
		if e.Now() != ref.Now() {
			t.Fatalf("final clock differs: wheel %v, reference %v", e.Now(), ref.Now())
		}
	})
}

// TestInsertCurReclaimsConsumedPrefix: merging an event into a sorted run
// whose array is full moves the unconsumed events to the front instead of
// growing the array, keeps (at, seq) order, and leaves no stale callback
// behind in the array.
func TestInsertCurReclaimsConsumedPrefix(t *testing.T) {
	var q wheelQueue
	fn := func() {}
	q.cur = make([]event, 0, 8)
	for i := 0; i < 8; i++ {
		q.cur = append(q.cur, event{at: Time(i), seq: uint64(i), fn: fn})
	}
	for i := 0; i < 6; i++ {
		q.popCur()
	}
	q.lowBound = 100
	q.insertCur(event{at: 6, seq: 100, fn: fn})
	if cap(q.cur) != 8 {
		t.Errorf("cap(cur) = %d after the insert, want 8 (prefix reclaimed)", cap(q.cur))
	}
	var got []uint64
	for q.curHead < len(q.cur) {
		got = append(got, q.popCur().seq)
	}
	if want := []uint64{6, 100, 7}; !slices.Equal(got, want) {
		t.Errorf("pop order = %v, want %v", got, want)
	}
	for i, ev := range q.cur[:cap(q.cur)] {
		if ev.fn != nil {
			t.Errorf("slot %d still holds the callback of seq %d", i, ev.seq)
		}
	}
}
