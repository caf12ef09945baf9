package main

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"dup/internal/proto"
	"dup/internal/store"
	"dup/internal/transport"
	"dup/internal/wire"
)

// probe observes a live cluster at its module boundaries from the
// benchmark's side: probedTransport wraps each transport.TCP and
// probedJournal each store.Store, so nothing inside the program changes.
//
// Untraced, a probe only records push sends and arrivals into a log
// (propagate needs them for its end-to-end metrics). Traced, it also times
// every transport Send, every call into live's inbound handlers and every
// journal write, counts replica-protocol frames, captures a sample of
// sent messages for the codec timing, and logs spans. Everything is
// recorded only while window is set, so the counters are the window's own.
type probe struct {
	traced bool
	base   time.Time
	window atomic.Bool

	pushes *slotLog[pushEvent] // nil unless the workload records push traffic
	spans  *slotLog[span]      // traced only
	frames *frameSample        // traced only
	recDur *slotLog[int64]     // traced only: Record durations

	sends, sendNs             atomic.Int64
	handled, handlerNs        atomic.Int64
	bursts, burstMsgs         atomic.Int64
	replicaMsgs               atomic.Int64
	records, recordNs         atomic.Int64
	replicaRecords, replicaNs atomic.Int64

	// Fail-over timing (traced): the highest replica term seen on the
	// wire, the term in force when the leaseholder was killed, and when
	// the first frame of a newer term went out.
	term, killTerm, electAt atomic.Int64
}

const (
	spanCapacity     = 1 << 18
	frameSampleSize  = 4096
	frameSampleEvery = 16
	recordDurations  = 1 << 18
)

func newProbe(traced bool, pushCapacity int) *probe {
	p := &probe{traced: traced, base: time.Now()}
	if pushCapacity > 0 {
		p.pushes = newSlotLog[pushEvent](pushCapacity)
	}
	if traced {
		p.spans = newSlotLog[span](spanCapacity)
		p.frames = &frameSample{msgs: newSlotLog[*proto.Message](frameSampleSize)}
		p.recDur = newSlotLog[int64](recordDurations)
	}
	return p
}

// now is the probe's clock: nanoseconds since its base.
func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// sent inspects an outbound message before the transport takes it (the
// transport may release it at once) and returns the version id of the
// first push it carries, or 0.
func (p *probe) sent(m *proto.Message, at int64, inWindow bool) uint64 {
	var id uint64
	if m.Kind == proto.KindBatch {
		for _, s := range m.Batch {
			if v := p.sentOne(s, at, inWindow); id == 0 {
				id = v
			}
		}
	} else {
		id = p.sentOne(m, at, inWindow)
	}
	if inWindow && p.frames != nil {
		p.frames.offer(m)
	}
	return id
}

func (p *probe) sentOne(m *proto.Message, at int64, inWindow bool) uint64 {
	switch {
	case m.Kind == proto.KindPush:
		if inWindow && p.pushes != nil {
			p.pushes.add(pushEvent{at: at, version: m.Version, key: int32(m.Key), from: int16(m.Origin), to: int16(m.To)})
		}
		return versionID(m.Key, m.Version)
	case replicaKind(m.Kind) && p.traced:
		if inWindow {
			p.replicaMsgs.Add(1)
		}
		p.observeTerm(int64(m.Old), at)
	}
	return 0
}

// arrived records the pushes in one message delivered to node id and
// returns the version id of the first, or 0.
func (p *probe) arrived(id int, m *proto.Message, at int64) uint64 {
	if m.Kind == proto.KindBatch {
		var first uint64
		for _, s := range m.Batch {
			if v := p.arrivedOne(id, s, at); first == 0 {
				first = v
			}
		}
		return first
	}
	return p.arrivedOne(id, m, at)
}

func (p *probe) arrivedOne(id int, m *proto.Message, at int64) uint64 {
	if m.Kind != proto.KindPush {
		return 0
	}
	if p.pushes != nil {
		p.pushes.add(pushEvent{at: at, version: m.Version, key: int32(m.Key), from: int16(m.Origin), to: int16(id), arrive: true})
	}
	return versionID(m.Key, m.Version)
}

// observeTerm keeps the highest replica term seen and stamps the first
// frame of a term newer than the one in force at the kill.
func (p *probe) observeTerm(term, at int64) {
	for {
		cur := p.term.Load()
		if term <= cur || p.term.CompareAndSwap(cur, term) {
			break
		}
	}
	if k := p.killTerm.Load(); k > 0 && term > k {
		p.electAt.CompareAndSwap(0, at)
	}
}

// markKill notes the term in force as the leaseholder is killed.
func (p *probe) markKill() { p.killTerm.Store(p.term.Load()) }

// replicaKind reports whether k belongs to the replicated authority's
// quorum protocol (the kinds dup/internal/replica exchanges).
func replicaKind(k proto.Kind) bool {
	switch k {
	case proto.KindPrepare, proto.KindPromise, proto.KindAccept,
		proto.KindCommit, proto.KindLease, proto.KindReconfig, proto.KindStateXfer:
		return true
	}
	return false
}

// probedTransport wraps a TCP transport with a probe. It implements
// transport.Transport and transport.BurstRegistrar, so live dispatches
// inbound bursts through it exactly as it would through the TCP
// transport itself.
type probedTransport struct {
	inner *transport.TCP
	p     *probe
}

func (t *probedTransport) Register(id int, h transport.Handler) {
	if h == nil {
		t.inner.Register(id, nil)
		return
	}
	p := t.p
	t.inner.Register(id, func(m *proto.Message) bool {
		if !p.window.Load() {
			return h(m)
		}
		t0 := p.now()
		vid := p.arrived(id, m, t0)
		if !p.traced {
			return h(m)
		}
		t0 = p.now()
		ok := h(m)
		t1 := p.now()
		p.handled.Add(1)
		p.handlerNs.Add(t1 - t0)
		if vid != 0 {
			p.spans.add(span{name: spanHandler, parent: spanDeliver, id: vid, start: t0, end: t1})
		}
		return ok
	})
}

func (t *probedTransport) RegisterBurst(id int, h transport.BurstHandler) {
	if h == nil {
		t.inner.RegisterBurst(id, nil)
		return
	}
	p := t.p
	t.inner.RegisterBurst(id, func(ms []*proto.Message) {
		if !p.window.Load() {
			h(ms)
			return
		}
		t0 := p.now()
		var vid uint64
		for _, m := range ms {
			if v := p.arrived(id, m, t0); vid == 0 {
				vid = v
			}
		}
		if !p.traced {
			h(ms)
			return
		}
		n := int64(len(ms))
		t0 = p.now()
		h(ms)
		t1 := p.now()
		p.handled.Add(n)
		p.handlerNs.Add(t1 - t0)
		p.bursts.Add(1)
		p.burstMsgs.Add(n)
		if vid != 0 {
			p.spans.add(span{name: spanHandler, parent: spanDeliver, id: vid, start: t0, end: t1})
		}
	})
}

func (t *probedTransport) Send(m *proto.Message) {
	p := t.p
	inWindow := p.window.Load()
	if !inWindow && !p.traced {
		t.inner.Send(m)
		return
	}
	t0 := p.now()
	vid := p.sent(m, t0, inWindow)
	if !p.traced || !inWindow {
		t.inner.Send(m)
		return
	}
	t0 = p.now()
	t.inner.Send(m)
	t1 := p.now()
	p.sends.Add(1)
	p.sendNs.Add(t1 - t0)
	if vid != 0 {
		p.spans.add(span{name: spanSend, parent: spanVersion, id: vid, start: t0, end: t1})
	}
}

func (t *probedTransport) Drops() int64                     { return t.inner.Drops() }
func (t *probedTransport) KindDrops() [proto.NumKinds]int64 { return t.inner.KindDrops() }
func (t *probedTransport) Close() error                     { return t.inner.Close() }

// probedJournal times the file-backed store's three journal interfaces;
// live type-asserts its journal to store.ReplicaJournal and
// store.ReplicaConfigJournal, so the wrapper implements all three.
type probedJournal struct {
	inner *store.Store
	p     *probe
}

func (j *probedJournal) Record(ns store.NodeState) {
	p := j.p
	if !p.window.Load() {
		j.inner.Record(ns)
		return
	}
	t0 := p.now()
	j.inner.Record(ns)
	t1 := p.now()
	p.records.Add(1)
	p.recordNs.Add(t1 - t0)
	p.recDur.add(t1 - t0)
	if ns.IsRoot {
		p.spans.add(span{name: spanRecord, parent: spanVersion, id: versionID(ns.Key, ns.Version), start: t0, end: t1})
	}
}

func (j *probedJournal) RecordReplica(rs store.ReplicaState) {
	p := j.p
	if !p.window.Load() {
		j.inner.RecordReplica(rs)
		return
	}
	t0 := p.now()
	j.inner.RecordReplica(rs)
	t1 := p.now()
	p.replicaRecords.Add(1)
	p.replicaNs.Add(t1 - t0)
	p.spans.add(span{name: spanRecordReplica, parent: spanVersion, id: versionID(rs.Key, rs.Version), start: t0, end: t1})
}

func (j *probedJournal) RecordReplicaConfig(rc store.ReplicaConfig) { j.inner.RecordReplicaConfig(rc) }

// pushEvent is one push sent (arrive false) or delivered to node to
// (arrive true), at nanoseconds since the probe's base.
type pushEvent struct {
	at       int64
	version  int64
	key      int32
	from, to int16
	arrive   bool
}

// frameSample keeps clones of every frameSampleEvery-th sent message, so
// the codec can be timed on the run's own message mix.
type frameSample struct {
	seq  atomic.Int64
	msgs *slotLog[*proto.Message]
}

func (f *frameSample) offer(m *proto.Message) {
	if f.seq.Add(1)%frameSampleEvery != 0 {
		return
	}
	// Reserve the slot before cloning, so no clone is made for a full log.
	if i := f.msgs.n.Add(1) - 1; i < int64(len(f.msgs.v)) {
		f.msgs.v[i] = proto.Clone(m)
	}
}

// codecTiming encodes the sampled messages with wire.AppendFrame and
// decodes the stream with wire.Reader.ReadBurst, rounds times over, and
// returns the mean frame size and the encode and decode time per
// message. It releases the samples.
func (f *frameSample) codecTiming(rounds int) (frameBytes, encodeNs, decodeNs float64, err error) {
	msgs := f.msgs.values()
	defer func() {
		for _, m := range msgs {
			proto.Release(m)
		}
	}()
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	var buf []byte
	var encode, decode time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		buf = buf[:0]
		for _, m := range msgs {
			buf = wire.AppendFrame(buf, m)
		}
		encode += time.Since(t0)

		t0 = time.Now()
		rd := wire.NewReader(bytes.NewReader(buf))
		decoded := 0
		for {
			ms, rerr := rd.ReadBurst(0)
			decoded += len(ms)
			for _, m := range ms {
				proto.Release(m)
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return 0, 0, 0, rerr
			}
		}
		decode += time.Since(t0)
		if decoded != len(msgs) {
			return 0, 0, 0, errors.New("codec round trip lost frames")
		}
	}
	per := float64(rounds * len(msgs))
	return float64(len(buf)) / float64(len(msgs)), float64(encode.Nanoseconds()) / per, float64(decode.Nanoseconds()) / per, nil
}
