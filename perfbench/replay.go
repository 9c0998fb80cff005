package main

import (
	"errors"
	"fmt"
	"runtime"

	"htapxplain/internal/exec"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/latency"
	"htapxplain/internal/llm"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/plan"
	"htapxplain/internal/prompt"
	"htapxplain/internal/shard"
	"htapxplain/internal/sqlparser"
)

// The traced replay calls the layers' public functions one statement at
// a time, on one goroutine, in the order the gateway and the explanation
// service call them, and wraps each call in a span named after the
// gateway's serving stages. It runs on every workload, after the window
// and its checks, so every layer is timed on every workload.
const (
	replaySelects = 100 // pool statements replayed through the SELECT chain
	replayWrites  = 50  // write statements replayed through the write chain
	numShards     = 2   // the fleet the shard chain replays against
)

// replayStats are the replay's counts; its times are in the spans.
type replayStats struct {
	selects  int64
	allocs   uint64             // heap allocations inside PhysPlan.Execute
	analyzed int64              // statements profiled with EXPLAIN ANALYZE
	opSelfUS map[string]float64 // operator class -> summed self time

	// the shard chain: SELECTs pinned to one shard or scattered, shards
	// touched, rows moved across exchanges
	pinned, scattered, shardsTouched, exchangeRows int64
}

// replay runs the SELECT chain twice over the pool (cold, then warm plan
// cache), the explanation chain once, the shard chain once against a
// fresh numShards-shard fleet, and the write chain over the next
// replayWrites statements of the workload's write stream.
func (b *bench) replay(rec *recorder, reqBase int64) (replayStats, error) {
	rs := replayStats{opSelfUS: map[string]float64{}}
	n := len(b.pool)
	if n > replaySelects {
		n = replaySelects
	}
	cache := gateway.NewPlanCache(8, 1024)
	req := reqBase
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < n; j++ {
			if err := b.replaySelect(rec, req, cache, b.pool[j], pass == 1, &rs); err != nil {
				return rs, err
			}
			req++
		}
	}
	for j := 0; j < n; j++ {
		if err := b.replayExplain(rec, req, b.pool[j]); err != nil {
			return rs, err
		}
		req++
	}
	coord, err := shard.New(numShards, htapConfig(""), shard.Options{})
	if err != nil {
		return rs, fmt.Errorf("replay fleet: %w", err)
	}
	for j := 0; j < n; j++ {
		if err := replayShard(rec, req, coord, b.pool[j], &rs); err != nil {
			coord.Close()
			return rs, err
		}
		req++
	}
	coord.Close()
	for k := 0; k < replayWrites; k++ {
		q := b.writes.get(b.writesUsed + int64(k))
		if err := b.replayWrite(rec, req, q.SQL); err != nil {
			return rs, err
		}
		req++
	}
	return rs, nil
}

// replaySelect follows Gateway.process: fingerprint, plan-cache lookup,
// parse and plan on a miss (both engines) or template hit (the routed
// engine), route, execute. With analyze it also profiles the routed plan
// with EXPLAIN ANALYZE.
func (b *bench) replaySelect(rec *recorder, req int64, cache *gateway.PlanCache, sql string, analyze bool, rs *replayStats) error {
	sys := b.st.sys
	root := rec.begin("select", req, -1)
	sp := rec.begin("fingerprint", req, root)
	fp, params, err := sqlparser.Fingerprint(sql)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay fingerprint %q: %w", sql, err)
	}
	paramKey := sqlparser.ParamKey(params)
	sp = rec.begin("cache_lookup", req, root)
	entry, found := cache.Get(fp)
	rec.end(sp)

	var phys *optimizer.PhysPlan
	switch {
	case found:
		if bp, ok := entry.Bind(paramKey); ok {
			phys = pick(bp, entry.Route)
			break
		}
		sp = rec.begin("plan", req, root)
		sel, err := parse(rec, req, sp, sql)
		if err != nil {
			return err
		}
		p, err := planOne(rec, req, sp, sys, sel, entry.Route)
		rec.end(sp)
		if err != nil {
			return err
		}
		bp := &gateway.BoundPlan{ParamKey: paramKey}
		if entry.Route == plan.TP {
			bp.TP, bp.TPTime = p, latency.Estimate(p.Explain)
		} else {
			bp.AP, bp.APTime = p, latency.Estimate(p.Explain)
		}
		entry.AddBind(bp)
		phys = p
	default:
		sp = rec.begin("plan", req, root)
		selTP, err := parse(rec, req, sp, sql)
		if err != nil {
			return err
		}
		selAP, err := parse(rec, req, sp, sql)
		if err != nil {
			return err
		}
		tp, err := planOne(rec, req, sp, sys, selTP, plan.TP)
		if err != nil {
			return err
		}
		ap, err := planOne(rec, req, sp, sys, selAP, plan.AP)
		rec.end(sp)
		if err != nil {
			return err
		}
		bp := &gateway.BoundPlan{ParamKey: paramKey, TP: tp, AP: ap,
			TPTime: latency.Estimate(tp.Explain), APTime: latency.Estimate(ap.Explain)}
		entry = &gateway.CachedPlan{Fingerprint: fp,
			Pair:   plan.Pair{SQL: sql, TP: tp.Explain, AP: ap.Explain},
			TPTime: bp.TPTime, APTime: bp.APTime}
		sp = rec.begin("route", req, root)
		entry.Route = gateway.CostPolicy{}.Route(gateway.RouteInput{
			Stmt: selTP, Pair: &entry.Pair, TPTime: bp.TPTime, APTime: bp.APTime})
		rec.end(sp)
		entry.AddBind(bp)
		cache.Put(entry)
		phys = pick(bp, entry.Route)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = rec.begin("execute", req, root)
	_, err = phys.Execute(execContext(phys))
	rec.endAttr(sp, entry.Route.String())
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("replay execute %q: %w", sql, err)
	}
	rs.selects++
	rs.allocs += m1.Mallocs - m0.Mallocs
	if analyze {
		sp = rec.begin("analyze", req, root)
		_, prof, err := phys.ExecuteAnalyzed(execContext(phys))
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("replay EXPLAIN ANALYZE %q: %w", sql, err)
		}
		opSelfUS(prof, rs.opSelfUS)
		rs.analyzed++
	}
	rec.end(root)
	return nil
}

// execContext gives a plan the parallelism an idle gateway grants it.
func execContext(phys *optimizer.PhysPlan) *exec.Context {
	ctx := exec.NewContext()
	if phys.DOP > 1 {
		ctx.DOP = phys.DOP
	}
	return ctx
}

func pick(bp *gateway.BoundPlan, eng plan.Engine) *optimizer.PhysPlan {
	if eng == plan.TP {
		return bp.TP
	}
	return bp.AP
}

func parse(rec *recorder, req int64, parent int32, sql string) (*sqlparser.Select, error) {
	sp := rec.begin("parse", req, parent)
	sel, err := sqlparser.Parse(sql)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay parse %q: %w", sql, err)
	}
	return sel, nil
}

func planOne(rec *recorder, req int64, parent int32, sys *htap.System, sel *sqlparser.Select, eng plan.Engine) (*optimizer.PhysPlan, error) {
	sp := rec.begin("plan_"+eng.String(), req, parent)
	var (
		p   *optimizer.PhysPlan
		err error
	)
	if eng == plan.TP {
		p, err = sys.Planner.PlanTP(sel)
	} else {
		p, err = sys.Planner.PlanAP(sel)
	}
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay %v planning: %w", eng, err)
	}
	return p, nil
}

// replayExplain follows Service.Explain: plan pair from the gateway's
// cache, calibrated modeled latencies, embedding, retrieval, prompt,
// generation.
func (b *bench) replayExplain(rec *recorder, req int64, sql string) error {
	root := rec.begin("explain", req, -1)
	sp := rec.begin("plan_pair", req, root)
	entry, _, err := b.st.gw.PlanPair(sql)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay plan pair %q: %w", sql, err)
	}
	cal := b.st.gw.Calibrator()
	res := &htap.Result{SQL: sql, Pair: entry.Pair,
		TPTime: cal.CalibratedDuration(plan.TP, entry.TPTime),
		APTime: cal.CalibratedDuration(plan.AP, entry.APTime)}
	res.Winner = plan.AP
	if res.TPTime <= res.APTime {
		res.Winner = plan.TP
	}

	sp = rec.begin("embed", req, root)
	enc := b.st.svc.Router().EmbedPair(&entry.Pair)
	rec.end(sp)
	sp = rec.begin("topk", req, root)
	hits, err := b.st.kb.TopK(enc, 2)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay retrieval %q: %w", sql, err)
	}
	sp = rec.begin("build", req, root)
	pb := prompt.NewBuilder(b.st.sys.Cat.SchemaSummary())
	text := pb.Build(hits, prompt.Question{
		SQL: sql, TPPlanJSON: res.Pair.TP.ExplainJSON(), APPlanJSON: res.Pair.AP.ExplainJSON(),
		Winner: res.Winner, Speedup: res.Speedup(),
	})
	rec.end(sp)
	sp = rec.begin("generate", req, root)
	_, err = llm.Doubao().Generate(text)
	rec.end(sp)
	rec.end(root)
	if err != nil {
		return fmt.Errorf("replay generation %q: %w", sql, err)
	}
	return nil
}

// replayShard follows the sharded gateway's SELECT path: route on the
// partition keys, then either run on the owning shard or prepare and run
// the scatter-gather.
func replayShard(rec *recorder, req int64, coord *shard.Coordinator, sql string, rs *replayStats) error {
	root := rec.begin("shard_select", req, -1)
	defer rec.end(root)
	sp := rec.begin("shard_route", req, root)
	target, dec, err := coord.Route(sql)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay shard route %q: %w", sql, err)
	}
	if target >= 0 {
		sp = rec.begin("shard_execute", req, root)
		_, err := coord.RunOn(target, sql)
		rec.endAttr(sp, "pinned")
		if err != nil {
			return fmt.Errorf("replay shard %d %q: %w", target, sql, err)
		}
		rs.pinned++
		rs.shardsTouched++
		return nil
	}
	sp = rec.begin("shard_plan", req, root)
	sc, err := coord.PrepareScatter(sql, dec)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay scatter plan %q: %w", sql, err)
	}
	sp = rec.begin("shard_execute", req, root)
	_, st, err := sc.Run()
	rec.endAttr(sp, "scatter")
	if err != nil {
		return fmt.Errorf("replay scatter %q: %w", sql, err)
	}
	rs.scattered++
	rs.shardsTouched += int64(coord.NumShards())
	rs.exchangeRows += st.ExchangeRows
	return nil
}

// replayWrite follows the gateway's write path: parse the script, run
// its statements in one transaction, commit (or roll back a ROLLBACK
// block).
func (b *bench) replayWrite(rec *recorder, req int64, sql string) error {
	root := rec.begin("write", req, -1)
	sp := rec.begin("parse", req, root)
	script, err := sqlparser.ParseScript(sql)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("replay write parse %q: %w", sql, err)
	}
	tx := b.st.sys.Begin()
	sp = rec.begin("apply", req, root)
	for _, stmt := range script.Stmts {
		if _, err := tx.ExecStmt(stmt); err != nil {
			rec.end(sp)
			tx.Rollback()
			return fmt.Errorf("replay write %q: %w", sql, err)
		}
	}
	rec.end(sp)
	if !script.Commit {
		tx.Rollback()
		rec.end(root)
		return nil
	}
	sp = rec.begin("commit", req, root)
	_, err = tx.Commit()
	rec.end(sp)
	rec.end(root)
	if err != nil && !errors.Is(err, htap.ErrConflict) {
		return fmt.Errorf("replay commit %q: %w", sql, err)
	}
	return nil
}
