package main

// liveLayers derives the live, transport and store per-layer metrics of a
// traced window from the Networks' counters (before and after) and the
// probe's own timings. versions is how many versions the authority
// published in the window.
func liveLayers(p *probe, before, after counters, versions int64) metrics {
	m := metrics{}
	d := func(a, b int64) float64 { return float64(a - b) }
	queries := d(after.Queries, before.Queries)
	pushes := d(after.Pushes, before.Pushes)
	m.set("live.local_hits_per_query", div(d(after.LocalHits, before.LocalHits), queries), "ratio")
	m.set("live.pushes_per_version", div(pushes, float64(versions)), "count")
	m.set("live.acks_per_push", div(d(after.Acks, before.Acks), pushes), "ratio")
	m.set("live.dup_suppressed", d(after.DupSuppressed, before.DupSuppressed), "count")
	m.set("live.inbox_burst_mean", after.InboxBurstMean, "msgs")
	m.set("live.retransmits", d(after.Retransmits, before.Retransmits), "count")
	m.set("live.root_expiries", d(after.RootExpiries, before.RootExpiries), "count")
	m.set("live.subscribes", d(after.Subscribes, before.Subscribes), "count")
	m.set("live.inbox_drops", d(after.InboxDrops, before.InboxDrops), "count")
	m.set("live.handler_ns", div(float64(p.handlerNs.Load()), float64(p.handled.Load())), "ns")
	m.set("transport.send_ns", div(float64(p.sendNs.Load()), float64(p.sends.Load())), "ns")
	m.set("transport.frames_per_push", div(d(after.frames, before.frames), pushes), "ratio")
	m.set("transport.burst_msgs", div(float64(p.burstMsgs.Load()), float64(p.bursts.Load())), "msgs")
	m.set("transport.drops", d(after.Drops, before.Drops), "count")

	m.set("store.record_us", div(float64(p.recordNs.Load()), float64(p.records.Load()))/1000, "us")
	var recs []float64
	for _, ns := range p.recDur.values() {
		recs = append(recs, float64(ns)/1000)
	}
	m.set("store.record_p99_us", quantile(recs, 0.99), "us")
	m.set("store.replica_record_us", div(float64(p.replicaNs.Load()), float64(p.replicaRecords.Load()))/1000, "us")
	m.set("store.records_per_version", div(float64(p.records.Load()+p.replicaRecords.Load()), float64(versions)), "ratio")
	m.set("replica.msgs_per_version", div(float64(p.replicaMsgs.Load()), float64(versions)), "ratio")
	return m
}

// codecRounds is how many times the sampled message mix is encoded and
// decoded for the wire timings.
const codecRounds = 20

// wireLayers times the codec on the messages the traced window sent.
func wireLayers(p *probe, m metrics) error {
	bytes, enc, dec, err := p.frames.codecTiming(codecRounds)
	if err != nil {
		return err
	}
	m.set("wire.frame_bytes", bytes, "B")
	m.set("wire.encode_ns", enc, "ns")
	m.set("wire.decode_ns", dec, "ns")
	return nil
}
