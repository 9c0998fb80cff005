package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/plan"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

// clients is the closed loop's client count: two, like the two CPUs the
// benchmark was sized on. Each client sends its next request only after
// the previous reply arrives.
const clients = 2

// workloadDef is one traffic mix.
type workloadDef struct {
	name      string
	poolSize  int     // read statements the clients cycle over
	writeFrac float64 // share of submissions that are DML
	txnFrac   float64 // share of the DML that is BEGIN ... COMMIT blocks
	explain   bool    // every submission is Service.Explain over the pool
	durable   bool    // WAL + checkpoints under a fresh data directory
}

// workloadDefs are the benchmark's workloads; BENCHMARK.json and
// README.md record why each one exists.
var workloadDefs = []workloadDef{
	{name: "htap_write", poolSize: 2000, writeFrac: 0.3, txnFrac: 0.3, durable: true},
	{name: "explain", poolSize: 300, explain: true},
}

// warmStatements bounds the set-up pass that fills the plan cache.
const warmStatements = 300

// crosses reports whether the running share frac of a stream crosses an
// integer at position i: the exact-in-the-long-run way to mark a frac
// share of positions, and ordinal is how many were marked before i.
func crosses(i int64, frac float64) (ordinal int64, marked bool) {
	lo, hi := int64(float64(i)*frac), int64(float64(i+1)*frac)
	return lo, hi > lo
}

// writeStream is the deterministic DML stream: write ordinal n always
// maps to the same statement, whatever order clients claim ordinals in.
type writeStream struct {
	mu      sync.Mutex
	dml     *workload.DMLGenerator
	txn     *workload.TxnGenerator
	txnFrac float64
	qs      []workload.Query
}

func newWriteStream(seed int64, txnFrac float64) *writeStream {
	return &writeStream{dml: workload.NewDMLGenerator(seed), txn: workload.NewTxnGenerator(seed), txnFrac: txnFrac}
}

func (ws *writeStream) get(n int64) workload.Query {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for int64(len(ws.qs)) <= n {
		if _, txn := crosses(int64(len(ws.qs)), ws.txnFrac); txn {
			ws.qs = append(ws.qs, ws.txn.Next())
		} else {
			ws.qs = append(ws.qs, ws.dml.Next())
		}
	}
	return ws.qs[n]
}

// expectedKind is the response kind a generated write must come back as.
func expectedKind(q workload.Query) string {
	switch {
	case strings.HasSuffix(q.Template, "_rollback"):
		return "rollback"
	case strings.HasSuffix(q.Template, "_commit"):
		return "commit"
	case strings.HasPrefix(q.Template, "dml_insert"):
		return "insert"
	case strings.HasPrefix(q.Template, "dml_update"):
		return "update"
	default:
		return "delete"
	}
}

// digest is an order-insensitive and an order-sensitive hash of a
// result, with floats rounded to 1e-4 as the repo's differential tests
// compare them.
type digest struct {
	set, seq uint64
	n        int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// scramble spreads a row hash before it is summed into a set digest.
func scramble(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func rowHash(r value.Row) uint64 {
	h := uint64(fnvOffset)
	for _, v := range r {
		h = mix(h, uint64(v.K))
		switch v.K {
		case value.KindFloat:
			f := math.Round(v.F*1e4) / 1e4
			if f == 0 {
				f = 0 // -0.0 and +0.0 agree
			}
			h = mix(h, math.Float64bits(f))
		case value.KindString:
			for i := 0; i < len(v.S); i++ {
				h ^= uint64(v.S[i])
				h *= fnvPrime
			}
			h = mix(h, uint64(len(v.S)))
		default:
			h = mix(h, uint64(v.I))
		}
	}
	return h
}

func digestRows(rows []value.Row) digest {
	d := digest{seq: fnvOffset, n: len(rows)}
	for _, r := range rows {
		rh := rowHash(r)
		d.set += scramble(rh)
		d.seq = mix(d.seq, rh)
	}
	return d
}

// readRef is the set-up reference for one pool statement.
type readRef struct {
	checked bool // false: the statement reads a table the workload writes
	ordered bool // ORDER BY: compare as a sequence
	tp, ap  digest
}

func (r readRef) matches(eng plan.Engine, got digest) bool {
	want := r.ap
	if eng == plan.TP {
		want = r.tp
	}
	if r.ordered {
		return got.n == want.n && got.seq == want.seq
	}
	return got.n == want.n && got.set == want.set
}

// bench is one run: the workload, its stack, its inputs and references.
type bench struct {
	w      workloadDef
	st     *stack
	pool   []string
	refs   []readRef // per pool position (read workloads)
	texts  []string  // per pool position (explain)
	writes *writeStream

	writesUsed int64 // write ordinals the window claimed

	retrains0  int64 // router retrains before the first reference text
	maxLSN     atomic.Uint64
	mismatches atomic.Int64
	firstMu    sync.Mutex
	first      string // the first mismatch, for the log
}

func newBench(w workloadDef, seed int64) *bench {
	b := &bench{w: w, writes: newWriteStream(seed, w.txnFrac)}
	for _, q := range workload.NewGenerator(seed).Batch(w.poolSize) {
		b.pool = append(b.pool, q.SQL)
	}
	return b
}

// mismatch records an output that disagrees with its reference.
func (b *bench) mismatch(format string, args ...any) {
	if b.mismatches.Add(1) == 1 {
		b.firstMu.Lock()
		b.first = fmt.Sprintf(format, args...)
		b.firstMu.Unlock()
	}
}

// warm is the set-up pass that fills the plan cache: one submission per
// pool statement, up to warmStatements. For explain it explains the whole
// pool and records each statement's reference text.
func (b *bench) warm() error {
	n := len(b.pool)
	if n > warmStatements && !b.w.explain {
		n = warmStatements
	}
	if b.w.explain {
		b.texts = make([]string, len(b.pool))
		b.retrains0 = b.st.svc.Stats().Retrains
	}
	for j := 0; j < n; j++ {
		if b.w.explain {
			ex, err := b.st.svc.Explain(b.pool[j])
			if err != nil {
				return fmt.Errorf("warm-up explain %q: %w", b.pool[j], err)
			}
			b.texts[j] = ex.Text()
			continue
		}
		resp, err := b.st.gw.Submit(b.pool[j])
		if err == nil {
			err = resp.Err
		}
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", b.pool[j], err)
		}
	}
	return nil
}

// buildRefs computes each pool statement's reference on ref, a system
// in the freshly loaded state, with both engines required to agree. A
// workload that writes checks only the statements that read no table it
// writes.
func (b *bench) buildRefs(ref *htap.System) error {
	b.refs = make([]readRef, len(b.pool))
	seen := make(map[string]readRef)
	for j, sql := range b.pool {
		if r, ok := seen[sql]; ok {
			b.refs[j] = r
			continue
		}
		sel, err := sqlparser.Parse(sql)
		if err != nil {
			return fmt.Errorf("reference parse %q: %w", sql, err)
		}
		r := readRef{checked: true, ordered: len(sel.OrderBy) > 0}
		if b.w.writeFrac > 0 {
			for _, t := range sel.From {
				if t.Name == "customer" { // the table the DML generators write
					r.checked = false
				}
			}
		}
		if r.checked {
			res, err := ref.Run(sql)
			if err != nil {
				return fmt.Errorf("reference run %q: %w", sql, err)
			}
			if !res.ResultsAgree {
				b.mismatch("reference engines disagree on %q", sql)
			}
			r.tp, r.ap = digestRows(res.TPRows), digestRows(res.APRows)
		}
		seen[sql] = r
		b.refs[j] = r
	}
	return nil
}

// client is one closed-loop client's private state: no field is shared.
type client struct {
	rec    recorder
	slice  int32     // the window slice the current operation started in
	lat    []float64 // ms per attempted operation, +Inf when it failed
	slices []int32   // the start slice of each operation in lat
	last   time.Time // completion of the client's last operation

	ok, failed int64
	queueUS    []float64 // admission wait per completed operation

	// per-layer bookkeeping from public response fields
	selects                                        int64
	rowsScanned, outputRows, hashRows, exchRows    int64
	chunksSkipped, chunksScanned, encoded, decoded int64
	writes, retries                                int64
	explains, grounded, planCached, promptBytes    int64

	// tracing-overhead accounting: operations started in traced and in
	// untraced time slices
	tracedOps, plainOps int64
}

// do runs operation i of the workload for client c.
func (b *bench) do(c *client, i int64) {
	if b.w.explain {
		b.doExplain(c, i)
		return
	}
	// reads before i = i - writes before i
	wi, write := crosses(i, b.w.writeFrac)
	if write {
		b.doWrite(c, i, wi)
		return
	}
	b.doRead(c, i, b.poolIndex(i-wi))
}

// poolIndex maps the n-th read to a pool position by a fixed
// pseudo-random scramble, so which statements the two clients run side
// by side varies from one read to the next instead of locking into the
// pool's order.
func (b *bench) poolIndex(n int64) int64 {
	return int64(scramble(uint64(n)) % uint64(len(b.pool)))
}

func (c *client) fail() {
	c.failed++
	c.lat = append(c.lat, math.Inf(1))
	c.slices = append(c.slices, c.slice)
}

func (c *client) done(lat, queue time.Duration) {
	c.ok++
	c.lat = append(c.lat, float64(lat)/1e6)
	c.slices = append(c.slices, c.slice)
	c.queueUS = append(c.queueUS, float64(queue)/1e3)
}

func (b *bench) doRead(c *client, i, j int64) {
	req := c.rec.begin("request", i, -1)
	sp := c.rec.begin("submit", i, req)
	t0 := time.Now()
	resp, err := b.st.gw.Submit(b.pool[j])
	lat := time.Since(t0)
	if err != nil || resp.Err != nil {
		c.rec.endAttr(sp, "error")
		c.rec.end(req)
		c.fail()
		return
	}
	c.rec.endAttr(sp, resp.Engine.String())
	if ref := b.refs[j]; ref.checked && !ref.matches(resp.Engine, digestRows(resp.Rows)) {
		c.rec.end(req)
		b.mismatch("%s result of %q differs from the reference", resp.Engine, b.pool[j])
		c.fail()
		return
	}
	c.rec.end(req)
	c.done(lat, resp.QueueWait)
	st := &resp.Stats
	c.selects++
	c.rowsScanned += st.RowsScanned
	c.outputRows += int64(len(resp.Rows))
	c.hashRows += st.HashBuildRows + st.HashProbeRows
	c.chunksSkipped += st.ChunksSkipped
	c.chunksScanned += st.ChunksScanned
	c.encoded += st.EncodedChunks
	c.decoded += st.DecodedChunks
}

// maxConflictRetries bounds a write's retries after first-writer-wins
// conflicts before it counts as failed.
const maxConflictRetries = 100

func (b *bench) doWrite(c *client, i, wi int64) {
	q := b.writes.get(wi)
	req := c.rec.begin("request", i, -1)
	t0 := time.Now()
	var (
		resp *gateway.Response
		err  error
	)
	for attempt := 0; ; attempt++ {
		sp := c.rec.begin("submit", i, req)
		resp, err = b.st.gw.Submit(q.SQL)
		c.rec.endAttr(sp, "DML")
		if err != nil || !errors.Is(resp.Err, htap.ErrConflict) || attempt == maxConflictRetries {
			break
		}
		c.retries++
	}
	lat := time.Since(t0)
	c.rec.end(req)
	if err != nil || resp.Err != nil {
		c.fail()
		return
	}
	if want := expectedKind(q); resp.Kind != want || (want == "insert" && resp.RowsAffected != 1) {
		b.mismatch("write %q came back as %s (%d rows), want %s", q.SQL, resp.Kind, resp.RowsAffected, want)
		c.fail()
		return
	}
	for {
		cur := b.maxLSN.Load()
		if resp.LSN <= cur || b.maxLSN.CompareAndSwap(cur, resp.LSN) {
			break
		}
	}
	c.done(lat, resp.QueueWait)
	c.writes++
}

func (b *bench) doExplain(c *client, i int64) {
	j := b.poolIndex(i)
	req := c.rec.begin("request", i, -1)
	sp := c.rec.begin("explain", i, req)
	t0 := time.Now()
	ex, err := b.st.svc.Explain(b.pool[j])
	lat := time.Since(t0)
	c.rec.end(sp)
	c.rec.end(req)
	if err != nil {
		c.fail()
		return
	}
	if msg := b.checkExplanation(j, ex.Text(), ex.Retrieved); msg != "" {
		b.mismatch("explanation of %q: %s", b.pool[j], msg)
		c.fail()
		return
	}
	c.done(lat, lat-ex.ServeTime)
	c.explains++
	c.promptBytes += int64(len(ex.Prompt))
	if len(ex.Retrieved) > 0 {
		c.grounded++
	}
	if ex.PlanCached {
		c.planCached++
	}
}

// checkExplanation returns why an explanation is wrong, or "" when it is
// right: non-empty, citing at least one live knowledge-base entry, and
// equal to the set-up reference unless a retrain swapped the router.
func (b *bench) checkExplanation(j int64, text string, hits []knowledge.Hit) string {
	if strings.TrimSpace(text) == "" {
		return "empty text"
	}
	live := false
	for _, h := range hits {
		if _, ok := b.st.kb.Get(h.Entry.ID); ok {
			live = true
		}
	}
	if !live {
		return fmt.Sprintf("cites no live knowledge-base entry (%d retrieved)", len(hits))
	}
	if text != b.texts[j] && b.st.svc.Stats().Retrains == b.retrains0 {
		return "text differs from the set-up reference"
	}
	return ""
}
