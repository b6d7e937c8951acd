package main

// Per-layer metrics of the traced run.  Timings come from the spans;
// cache, buffer-pool and WAL figures are /stats deltas; gauges are read
// from /stats at the end.

// layerMetrics fills the traced run's metrics.  reads are the untraced
// and traced open-loop halves; readDelta spans the untraced half (so
// replays do not inflate cache hits); runDelta spans the whole run
// after set-up; end is the final /stats.
func (r *runner) layerMetrics(out *outcome, reads []openPhase, readDelta, runDelta, end counters, w *writer) {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	p := func(name, unit string, xs []float64, q float64) {
		out.setPct(name, unit, percentile(xs, q))
	}
	handler := byName(spans, "webdav.handler", nil)
	p("webdav.handler_us.p50", "us", handler, 50)
	p("webdav.handler_us.p99", "us", handler, 99)
	p("webdav.wire_us.p50", "us", byName(spans, "request", self), 50)
	lc := r.lc.totals()
	out.set("webdav.resp_bytes.mean", "B", ratio(float64(lc.respBytes), lc.queries), lc.queries)
	p("xdb.parse_us.p50", "us", byName(spans, "xdb.parse", nil), 50)
	exec := byName(spans, "xdb.execute", nil)
	p("xdb.execute_us.p50", "us", exec, 50)
	p("xdb.execute_us.p99", "us", exec, 99)
	lookups := int(readDelta["cache.hits"] + readDelta["cache.misses"])
	out.set("xdb.cache.hit_ratio", "ratio", readDelta.ratio("cache.hits", "cache.misses"), lookups)
	out.set("xdb.cache.evictions", "count", readDelta["cache.evictions"], lookups)
	out.set("xdb.cache.stale", "count", readDelta["cache.stale"], lookups)
	out.set("xdb.cache.coalesced", "count", readDelta["cache.coalesced"], lookups)
	search := byName(spans, "xmlstore.search", nil)
	p("xmlstore.search_us.p50", "us", search, 50)
	p("xmlstore.search_us.p99", "us", search, 99)
	out.set("xmlstore.sections_per_query", "count", ratio(float64(lc.sections), lc.queries), lc.queries)
	nodeLookups := int(readDelta["node_cache.hits"] + readDelta["node_cache.misses"])
	out.set("xmlstore.nodecache.hit_ratio", "ratio", readDelta.ratio("node_cache.hits", "node_cache.misses"), nodeLookups)
	out.set("xmlstore.nodecache.evictions", "count", readDelta["node_cache.evictions"], nodeLookups)
	pageLookups := int(readDelta["pool.hits"] + readDelta["pool.misses"])
	out.set("ordbms.pool.hit_ratio", "ratio", readDelta.ratio("pool.hits", "pool.misses"), pageLookups)
	ingest := msOf(byName(spans, "xmlstore.ingest_batch", nil))
	p("xmlstore.ingest_batch_ms.p50", "ms", ingest, 50)
	p("xmlstore.ingest_batch_ms.p99", "ms", ingest, 99)
	p("xmlstore.delete_ms.p50", "ms", msOf(byName(spans, "xmlstore.delete", nil)), 50)
	p("textindex.iter_us.p50", "us", byName(spans, "textindex.iter", nil), 50)
	out.set("textindex.ids_per_query", "count", ratio(float64(lc.ids), lc.textQuery), lc.textQuery)
	out.set("textindex.sections_per_id", "ratio", ratio(float64(lc.idSections), lc.ids), lc.textQuery)
	out.set("textindex.dead_ids", "count", end["textindex.dead_ids"], 1)
	out.set("textindex.bytes", "B", end["textindex.bytes"], 1)
	out.set("ordbms.wal.appends_per_doc", "count", ratio(runDelta["wal.appends"], w.docs), w.docs)
	out.set("ordbms.wal.syncs_per_batch", "count", ratio(runDelta["wal.syncs"], w.batches), w.batches)
	ckpt := msOf(byName(spans, "ordbms.checkpoint", nil))
	p("ordbms.checkpoint_ms.p50", "ms", ckpt, 50)
	out.set("ordbms.checkpoint_ms.max", "ms", maxOf(ckpt), len(ckpt))
	p("sgml.write_us.p50", "us", byName(spans, "sgml.write", nil), 50)
	p("xslt.transform_us.p50", "us", byName(spans, "xslt.transform", nil), 50)
	p("docform.convert_us.p50", "us", byName(spans, "docform.convert", nil), 50)
	untraced, traced := reads[0].res, reads[1].res
	p("bench.gen_late_ms.p99", "ms", untraced.lateMs, 99)
	base := percentile(untraced.latMs, 50).Value
	out.set("bench.trace_overhead_pct", "%", 100*(percentile(traced.latMs, 50).Value-base)/base, len(traced.latMs))
	out.set("bench.empty_frac", "ratio", out.rep.Sizes["empty_answer_frac"].(float64), int(r.answered.Load()))
}

func ratio(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

func msOf(usVals []float64) []float64 {
	out := make([]float64, len(usVals))
	for i, v := range usVals {
		out[i] = v / 1000
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
