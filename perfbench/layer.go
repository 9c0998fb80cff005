package main

import (
	"fmt"
	"path/filepath"
)

// perLayer computes the per-layer metrics of a traced run: counts and
// ratios from the window's response fields and stat deltas, times from
// the replay's spans (p50 of each span's self time). It writes every
// span of the run to a JSON-lines file in the state directory.
func (b *bench) perLayer(cfg runConfig, ws *windowResult, before, after counters, replayed int) (map[string]float64, error) {
	var (
		c           client // the clients' bookkeeping, summed
		queueUS     []float64
		ops         int64
		windowSpans int
	)
	recs := make([]*recorder, 0, len(ws.clients)+1)
	for _, k := range ws.clients {
		queueUS = append(queueUS, k.queueUS...)
		ops += k.ok + k.failed
		c.selects += k.selects
		c.rowsScanned += k.rowsScanned
		c.outputRows += k.outputRows
		c.hashRows += k.hashRows
		c.chunksSkipped += k.chunksSkipped
		c.chunksScanned += k.chunksScanned
		c.encoded += k.encoded
		c.decoded += k.decoded
		c.writes += k.writes
		c.retries += k.retries
		c.explains += k.explains
		c.grounded += k.grounded
		c.planCached += k.planCached
		c.promptBytes += k.promptBytes
		c.tracedOps += k.tracedOps
		c.plainOps += k.plainOps
		recs = append(recs, &k.rec)
		windowSpans += len(k.rec.spans)
	}

	// the replay shares the window's time base; its request ids follow
	// the window's operation indexes
	rec := &recorder{on: true, base: ws.clients[0].rec.base}
	rs, err := b.replay(rec, ops)
	if err != nil {
		return nil, err
	}
	recs = append(recs, rec)
	path := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := writeSpans(path, recs); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "spans: %d window + %d replay written to %s\n", windowSpans, len(rec.spans), path)

	// replay span self times by name, and by name and tag
	self := selfTimes(rec.spans)
	byName := map[string][]float64{}
	var overhead []float64
	execOf := map[int64]int64{} // request -> execute + analyze time
	for i, s := range rec.spans {
		us := float64(self[i]) / 1e3
		byName[s.Name] = append(byName[s.Name], us)
		if s.Name == "execute" {
			byName["execute_"+s.Attr] = append(byName["execute_"+s.Attr], us)
		}
		if s.Name == "execute" || s.Name == "analyze" {
			execOf[s.Req] += s.dur()
		}
	}
	for _, s := range rec.spans {
		if s.Name == "select" {
			overhead = append(overhead, float64(s.dur()-execOf[s.Req])/1e3)
		}
	}
	spanP50 := func(names ...string) float64 {
		var xs []float64
		for _, n := range names {
			xs = append(xs, byName[n]...)
		}
		return p50(xs)
	}
	var explainDur []float64
	for _, s := range rec.spans {
		if s.Name == "explain" {
			explainDur = append(explainDur, float64(s.dur())/1e3)
		}
	}

	g0, g1 := before.gw, after.gw
	selects := float64((g1.CacheHits - g0.CacheHits) + (g1.CacheTemplateHits - g0.CacheTemplateHits) + (g1.CacheMisses - g0.CacheMisses))
	shardSelects := float64(rs.pinned + rs.scattered)
	analyzed := float64(rs.analyzed)
	m := map[string]float64{
		"gateway.queue_wait_us":      p50(queueUS),
		"gateway.overhead_us":        p50(overhead),
		"gateway.cache_lookup_us":    spanP50("cache_lookup"),
		"gateway.cache_hit_ratio":    ratio(float64(g1.CacheHits-g0.CacheHits), selects),
		"gateway.template_hit_ratio": ratio(float64(g1.CacheTemplateHits-g0.CacheTemplateHits), selects),

		"sqlparser.fingerprint_us":   spanP50("fingerprint"),
		"sqlparser.parse_us":         spanP50("parse"),
		"optimizer.plan_us":          spanP50("plan_TP", "plan_AP"),
		"optimizer.plans_per_select": ratio(float64(2*(g1.CacheMisses-g0.CacheMisses)+(g1.CacheTemplateHits-g0.CacheTemplateHits)), selects),

		"exec.tp_us":                       spanP50("execute_TP"),
		"exec.ap_us":                       spanP50("execute_AP"),
		"exec.op.scan_us":                  ratio(rs.opSelfUS["scan"], analyzed),
		"exec.op.hashjoin_us":              ratio(rs.opSelfUS["hashjoin"], analyzed),
		"exec.op.nljoin_us":                ratio(rs.opSelfUS["nljoin"], analyzed),
		"exec.op.agg_us":                   ratio(rs.opSelfUS["agg"], analyzed),
		"exec.op.sort_us":                  ratio(rs.opSelfUS["sort"], analyzed),
		"exec.allocs_per_select":           ratio(float64(rs.allocs), float64(rs.selects)),
		"exec.rows_scanned_per_output_row": ratio(float64(c.rowsScanned), float64(c.outputRows)),
		"exec.hash_rows_per_select":        ratio(float64(c.hashRows), float64(c.selects)),
		"exec.exchange_rows_per_select":    ratio(float64(rs.exchangeRows), shardSelects),

		"colstore.chunks_pruned_ratio": ratio(float64(c.chunksSkipped), float64(c.chunksSkipped+c.chunksScanned)),
		"colstore.encoded_chunk_ratio": ratio(float64(c.encoded), float64(c.encoded+c.decoded)),
		"colstore.merges":              float64(g1.Merges - g0.Merges),
		"colstore.rows_merged":         float64(g1.RowsMerged - g0.RowsMerged),

		"htap.apply_us":                   spanP50("apply"),
		"htap.commit_us":                  spanP50("commit"),
		"htap.conflict_retries_per_write": ratio(float64(c.retries), float64(c.writes)),
		"wal.commits_per_fsync":           ratio(float64(g1.TxnCommits-g0.TxnCommits), float64(g1.WALSyncs-g0.WALSyncs)),
		"wal.bytes_per_row_written":       ratio(float64(g1.WALBytes-g0.WALBytes), float64(g1.RowsWritten-g0.RowsWritten)),
		"recovery.replayed_records":       float64(replayed),
		"recovery.checkpoints":            float64(g1.Checkpoints - g0.Checkpoints),

		"treecnn.embed_us":             spanP50("embed"),
		"knowledge.topk_us":            spanP50("topk"),
		"knowledge.grounded_ratio":     ratio(float64(c.grounded), float64(c.explains)),
		"prompt.build_us":              spanP50("build"),
		"prompt.bytes":                 ratio(float64(c.promptBytes), float64(c.explains)),
		"llm.generate_us":              spanP50("generate"),
		"explainsvc.serve_us":          p50(explainDur),
		"explainsvc.plan_cached_ratio": ratio(float64(c.planCached), float64(c.explains)),
		"explainsvc.retrains":          float64(g1.RouterRetrains - g0.RouterRetrains),

		"shard.route_us":     spanP50("shard_route"),
		"shard.exec_us":      spanP50("shard_execute"),
		"shard.pinned_ratio": ratio(float64(rs.pinned), shardSelects),
		"shard.fanout":       ratio(float64(rs.shardsTouched), shardSelects),

		"process.cpu_us_per_op": ratio(float64(after.cpuNS-before.cpuNS)/1e3, float64(ops)),
		"process.allocs_per_op": ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(ops)),
		"process.gc_cycles":     float64(after.mem.NumGC - before.mem.NumGC),
		"process.gc_pause_ms":   float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"trace.qps_ratio":       ratio(float64(c.tracedOps), float64(c.plainOps)),
	}
	return m, nil
}
