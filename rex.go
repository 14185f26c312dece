// Package rex explains relationships between entity pairs over a
// knowledge base, reproducing the REX system of Fang, Das Sarma, Yu and
// Bohannon (PVLDB 5(3), 2011).
//
// Given two entities, REX enumerates all minimal relationship
// explanations — constrained graph patterns connecting the pair,
// together with their instances in the knowledge base — and ranks them
// by configurable interestingness measures:
//
//	kb, _ := rex.LoadKB("entertainment.tsv")
//	ex, _ := rex.NewExplainer(kb, rex.Options{Measure: "size+local-dist", TopK: 5})
//	res, _ := ex.Explain("brad_pitt", "angelina_jolie")
//	for _, e := range res.Explanations {
//	    fmt.Println(e.Description)
//	}
//
// The package is a facade over the internal engine; see DESIGN.md for
// the architecture and the mapping to the paper's algorithms.
package rex

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"rex/internal/decorate"
	"rex/internal/enumerate"
	"rex/internal/fail"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/measure"
	"rex/internal/obs"
	"rex/internal/pattern"
	"rex/internal/rank"
	"rex/internal/relstore"
)

// ErrUnknownEntity is wrapped by errors returned for entity names absent
// from the knowledge base; match with errors.Is.
var ErrUnknownEntity = errors.New("unknown entity")

// KB is a knowledge base: a graph of entities connected by labeled,
// directed or undirected primary relationships.
type KB struct {
	g *kb.Graph
}

// LoadKB reads a knowledge base from a file, auto-detecting the format:
// the fast binary format (see KB.SaveBinary) by its magic header,
// otherwise the TSV interchange format (node/label/edge records). Either
// reader gets the file itself, from its start: the binary one takes it in
// a single read sized by Stat, the TSV one streams it.
func LoadKB(path string) (*KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [5]byte
	n, _ := io.ReadFull(f, magic[:]) // a file shorter than the magic is TSV's to refuse
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	read := kb.ReadTSV
	if string(magic[:n]) == "REXKB" {
		read = kb.ReadBinary
	}
	g, err := read(f)
	if err != nil {
		return nil, err
	}
	return &KB{g: g}, nil
}

// SaveBinary writes the knowledge base in the fast binary format, which
// loads an order of magnitude faster than TSV at paper scale.
func (k *KB) SaveBinary(path string) error { return k.g.SaveBinary(path) }

// ReadKB parses a knowledge base from TSV input.
func ReadKB(r io.Reader) (*KB, error) {
	g, err := kb.ReadTSV(r)
	if err != nil {
		return nil, err
	}
	return &KB{g: g}, nil
}

// WriteTSV serialises the knowledge base.
func (k *KB) WriteTSV(w io.Writer) error { return k.g.WriteTSV(w) }

// SaveTSV writes the knowledge base to a file.
func (k *KB) SaveTSV(path string) error { return k.g.SaveTSV(path) }

// SampleKB returns the curated entertainment knowledge base used by the
// examples and the paper's running example (Brad Pitt, Angelina Jolie,
// Tom Cruise, Kate Winslet, ...).
func SampleKB() *KB { return &KB{g: kbgen.Sample()} }

// GenOptions configures synthetic knowledge-base generation.
type GenOptions struct {
	// Scale multiplies the entity populations; 1.0 ≈ 2,700 entities,
	// 75 ≈ the paper's 200K-entity DBpedia extraction.
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// GenerateKB builds a synthetic entertainment knowledge base with the
// schema of the paper's DBpedia extraction.
func GenerateKB(opt GenOptions) *KB {
	return &KB{g: kbgen.Generate(kbgen.Options{Scale: opt.Scale, Seed: opt.Seed})}
}

// Stats summarises a knowledge base.
type Stats struct {
	Nodes, Edges, Labels int
	MaxDegree            int
	AvgDegree            float64
}

// Stats reports knowledge-base summary statistics.
func (k *KB) Stats() Stats {
	s := k.g.Stats()
	return Stats{Nodes: s.Nodes, Edges: s.Edges, Labels: s.Labels,
		MaxDegree: s.MaxDegree, AvgDegree: s.AvgDegree}
}

// Fingerprint returns the knowledge base's 16-hex-digit content hash —
// the same value served in query responses and /stats, and carried in
// the binary snapshot format for load-time identity checks.
func (k *KB) Fingerprint() string { return k.g.Fingerprint() }

// HasEntity reports whether the knowledge base contains the named entity.
func (k *KB) HasEntity(name string) bool { return k.g.NodeByName(name) != kb.InvalidNode }

// Entities returns all entity names of a given type ("" for all), in
// insertion order.
func (k *KB) Entities(typ string) []string {
	var out []string
	for _, n := range k.g.Nodes() {
		if typ == "" || n.Type == typ {
			out = append(out, n.Name)
		}
	}
	return out
}

// Connectedness counts the simple paths of length ≤ maxLen between two
// named entities — the workload-bucketing metric of the paper's
// evaluation. It returns an error for unknown entities.
func (k *KB) Connectedness(start, end string, maxLen int) (int, error) {
	s := k.g.NodeByName(start)
	if s == kb.InvalidNode {
		return 0, fmt.Errorf("rex: %w %q", ErrUnknownEntity, start)
	}
	e := k.g.NodeByName(end)
	if e == kb.InvalidNode {
		return 0, fmt.Errorf("rex: %w %q", ErrUnknownEntity, end)
	}
	return k.g.Connectedness(s, e, maxLen, -1), nil
}

// Options configures an Explainer. The zero value uses the paper's
// experimental defaults: pattern size limit 5, the size+local-dist
// combined measure that won the paper's user study, and top-10 results.
// Every explainer runs the same pipeline: bidirectional path
// enumeration, the pruned path union (Algorithm 4), and the ranking
// pruning the measure allows — the interleaved top-k search for an
// anti-monotone measure, the "LIMIT p" cut-off (Section 5.3.2) for a
// distributional one — whose answers equal unpruned ranking's.
type Options struct {
	// MaxPatternSize bounds explanation pattern size in nodes (paper: 5).
	MaxPatternSize int
	// Measure names the interestingness measure: size, random-walk,
	// count, monocount, local-dist, global-dist, size+monocount,
	// size+local-dist.
	Measure string
	// TopK bounds the number of returned explanations (paper: 10).
	TopK int
	// GlobalSamples is the number of sampled start entities estimating
	// the global distribution (paper: 100). Only used by global-dist.
	GlobalSamples int
	// Seed drives the deterministic sampling used by global-dist.
	Seed int64
	// MaxInstancesPerExplanation truncates the instance lists included
	// in results (0 keeps everything). Enumeration itself is unaffected.
	MaxInstancesPerExplanation int
	// Decorate re-attaches non-essential context facts (e.g. the
	// director of a co-starred film) to each returned explanation — the
	// post-processing stage Section 2.3 of the paper defers.
	Decorate bool
	// CacheSize enables an LRU cache of rendered results keyed by
	// (entity pair, normalized options) when positive; 0 disables
	// caching. Cached results are shared between callers and must be
	// treated as read-only.
	CacheSize int
	// Budget bounds the work of every query answered by this explainer,
	// making heavy pairs anytime: when the budget expires the best
	// explanations found so far are returned with Result.Truncated set
	// instead of running to exhaustion. The zero value never truncates.
	// A Request that sets a bound of its own runs under its own bounds
	// instead.
	Budget Budget
	// Durability, when its Dir is set, makes a Store built with these
	// options crash-safe: accepted deltas are written to a write-ahead
	// log before they are published, the graph is periodically
	// checkpointed, and a store reopened over the same directory
	// recovers the last acknowledged state. Ignored by plain Explainers.
	Durability DurabilityOptions
}

// DurabilityOptions configures the crash-safety journal of a Store: a
// directory holding a write-ahead log of accepted delta batches plus
// periodic full checkpoints. The zero value disables durability.
type DurabilityOptions struct {
	// Dir is the journal directory (created if missing). Empty disables
	// durability entirely. When the directory already holds a journal,
	// the recovered state wins over the KB the store is constructed
	// with: generation numbering resumes where the previous process
	// stopped.
	Dir string
	// Fsync selects when the WAL is flushed to stable storage: "always"
	// (the default — an acknowledged delta survives machine crashes),
	// "interval" (flush at most once per FsyncInterval), or "off"
	// (leave flushing to the OS page cache; a machine crash can lose
	// recently acknowledged deltas, a process crash cannot).
	Fsync string
	// FsyncInterval bounds the unsynced window under Fsync "interval"
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery checkpoints after this many WAL appends (default
	// 64; negative disables count-driven checkpoints).
	CheckpointEvery int
	// CheckpointBytes checkpoints once the WAL exceeds this size
	// (default 64 MiB; negative disables).
	CheckpointBytes int64
}

// Budget bounds the work of one query. An exhausted budget is not an
// error — the query returns the explanations built from the paths found
// so far with Result.Truncated set. A zero Budget bounds nothing: as
// Options.Budget it never truncates, and in a Request it means
// Options.Budget (see Request).
type Budget struct {
	// MaxExpansions caps the path search (0 = unlimited): the adjacency
	// scans of the simple-path join, one per partial path grown, which a
	// traced query reports as expansions. It bounds the path search, not
	// the query: the union, measure and ranking then run on every path it
	// admitted. Expansion-budgeted enumeration is deterministic: the
	// result is a prefix-consistent subset of the unbudgeted explanation
	// set, identical across runs.
	MaxExpansions int
	// Timeout bounds the query's wall-clock time (0 = none). The query
	// runs under one context that ends Timeout after it starts
	// (enumerate.WithDeadline), which enumeration, union, measures and
	// ranking poll at bounded intervals as they poll cancellation. Unlike
	// the caller's own context deadline — which aborts with an error — an
	// expired budget timeout returns the truncated best-so-far result.
	// Timeout truncation is timing-dependent, so such results are never
	// cached.
	Timeout time.Duration
}

// active reports whether the budget can truncate at all.
func (b Budget) active() bool { return b.MaxExpansions > 0 || b.Timeout > 0 }

// normalized clamps nonsensical negative fields to "unlimited".
func (b Budget) normalized() Budget {
	if b.MaxExpansions < 0 {
		b.MaxExpansions = 0
	}
	if b.Timeout < 0 {
		b.Timeout = 0
	}
	return b
}

func (o Options) normalized() Options {
	if o.MaxPatternSize <= 0 {
		o.MaxPatternSize = 5
	}
	if o.Measure == "" {
		o.Measure = "size+local-dist"
	}
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.GlobalSamples <= 0 {
		o.GlobalSamples = 100
	}
	return o
}

// Explainer answers relationship-explanation queries over one knowledge
// base. It is safe for concurrent use: a knowledge base is read-only,
// so every query path is a pure read, and the optional
// result cache is internally synchronised.
type Explainer struct {
	kb    *KB
	opt   Options
	m     measure.Measure
	cfg   enumerate.Config
	cache *resultCache
}

// NewExplainer validates the options and builds an explainer.
func NewExplainer(k *KB, opt Options) (*Explainer, error) {
	opt = opt.normalized()
	m, err := MeasureByName(opt.Measure)
	if err != nil {
		return nil, err
	}
	// One enumeration pool per explainer, and so per snapshot:
	// steady-state queries reuse path-join and merge buffers, and a hot
	// swap releases them with the old explainer.
	cfg := enumerate.Config{MaxPatternSize: opt.MaxPatternSize, Pool: enumerate.NewPool()}
	e := &Explainer{kb: k, opt: opt, m: m, cfg: cfg}
	if opt.CacheSize > 0 {
		e.cache = newResultCache(opt.CacheSize)
	}
	return e, nil
}

// MeasureNames lists the supported interestingness measures. The first
// eight are the paper's Table 1 rows; local-dev and global-dev are the
// standard-deviation distributional variant the paper sketches in
// Section 4.3.
func MeasureNames() []string {
	return []string{"size", "random-walk", "count", "monocount",
		"local-dist", "global-dist", "size+monocount", "size+local-dist",
		"local-dev", "global-dev"}
}

// MeasureByName resolves a measure name.
func MeasureByName(name string) (measure.Measure, error) {
	switch name {
	case "size":
		return measure.Size{}, nil
	case "random-walk":
		return measure.RandomWalk{}, nil
	case "count":
		return measure.Count{}, nil
	case "monocount":
		return measure.Monocount{}, nil
	case "local-dist":
		return measure.LocalPosition{}, nil
	case "global-dist":
		return measure.GlobalPosition{}, nil
	case "size+monocount":
		return measure.Combined{Primary: measure.Size{}, Secondary: measure.Monocount{}}, nil
	case "size+local-dist":
		return measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}}, nil
	case "local-dev":
		return measure.LocalDeviation{}, nil
	case "global-dev":
		return measure.GlobalDeviation{}, nil
	}
	return nil, fmt.Errorf("rex: unknown measure %q (supported: %v)", name, MeasureNames())
}

// Instance is one concrete realisation of an explanation pattern: entity
// names bound to the pattern's variables. Bindings[0] is the start
// entity, Bindings[1] the end entity; the rest follow variable order.
type Instance struct {
	Bindings []string
}

// Explanation is a ranked relationship explanation.
type Explanation struct {
	// Pattern is the compact pattern rendering with variables.
	Pattern string
	// Description substitutes the first instance's entities into the
	// pattern for display ("brad_pitt --spouse-- angelina_jolie; ...").
	Description string
	// SQL is the paper-style SQL query whose groups compute the local
	// count distribution of this pattern (Section 5.3.2), rendered only
	// for a Request that asks for it (Request.SQL) and empty and left out
	// of the JSON encoding otherwise.
	SQL string `json:",omitempty"`
	// IsPath reports whether the pattern is a simple path.
	IsPath bool
	// Size is the number of pattern nodes including the targets.
	Size int
	// NumInstances is the count of distinct instances (M_count).
	NumInstances int
	// Monocount is the anti-monotonic aggregate (M_monocount).
	Monocount int
	// Score is the measure's lexicographic score (greater = more
	// interesting).
	Score []float64
	// Instances lists concrete instances in instance-key order (node IDs
	// per variable), truncated to Options.MaxInstancesPerExplanation.
	Instances []Instance
	// Decorations lists rendered non-essential context facts when
	// Options.Decorate is set ("v2 --directed_by--> doug_liman").
	Decorations []string
}

// Result is a ranked explanation list for one entity pair.
type Result struct {
	Start, End   string
	Measure      string
	Explanations []Explanation
	// Truncated reports that the query exhausted its Budget and
	// Explanations holds the best explanations found within it rather
	// than the exhaustive ranking. Every listed explanation is complete
	// (real pattern, real instances, exact scores); only coverage of the
	// candidate space was cut short. Always false for unbudgeted
	// queries.
	Truncated bool
	// Trace is the per-stage execution trace when the query ran under a
	// context from WithTrace, nil otherwise. Traced results are always
	// private shallow copies, so the trace is per-caller even when the
	// underlying result came from the cache.
	Trace *QueryTrace `json:"trace,omitempty"`
	// enc holds the result's wire encoding once something has asked for
	// it (see AppendJSON). compute makes the holder, and because it is a
	// pointer every later copy of the result — tracedResult's and the
	// cache's — shares the one encoding. Nil on a Result built as a
	// literal.
	enc *resultJSON
}

// resultJSON is the once-built encoding of a computed Result without its
// Trace: everything in it is fixed when compute returns, so the bytes
// are too.
type resultJSON struct {
	once sync.Once
	body []byte
	err  error
}

// AppendJSON appends to dst exactly the bytes of json.Marshal(r) and
// returns the extended slice. For a result an Explainer computed,
// everything but the Trace is encoded on the first call and copied on
// every later one, from any copy of the result and on any goroutine; a
// Trace is per caller, so it is encoded per call and spliced in as the
// last field. Callers that never ask pay nothing. The bytes are of the
// result as computed: results are shared and read-only (see Query),
// and a copy modified anyway still appends what was computed.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	body, err := r.bareJSON()
	if err != nil {
		return dst, err
	}
	if r.Trace == nil {
		return append(dst, body...), nil
	}
	trace, err := json.Marshal(r.Trace)
	if err != nil {
		return dst, err
	}
	// No Result field but Trace is omitempty, so body always ends a
	// non-empty object and the trace goes in before its closing brace.
	dst = append(dst, body[:len(body)-1]...)
	dst = append(dst, `,"trace":`...)
	dst = append(dst, trace...)
	return append(dst, '}'), nil
}

// bareJSON returns the encoding of r without its Trace, shared and
// read-only when r has a holder.
func (r *Result) bareJSON() ([]byte, error) {
	if r.enc == nil {
		return r.marshalBare()
	}
	r.enc.once.Do(func() { r.enc.body, r.enc.err = r.marshalBare() })
	return r.enc.body, r.enc.err
}

func (r *Result) marshalBare() ([]byte, error) {
	bare := *r
	bare.Trace = nil
	return json.Marshal(&bare)
}

// Pair names one entity pair to explain.
type Pair struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

// Request is one query: an entity pair, the work bounds it runs under
// and whether its answer carries SQL. A request that bounds nothing runs
// under Options.Budget; one that sets either bound runs under its own
// bounds only.
type Request struct {
	Pair
	Budget
	// SQL renders Explanation.SQL for this request. It bounds no work;
	// an answer with SQL is cached apart from the one without.
	SQL bool
}

// resolve is the one place a request's bounds meet Options.Budget: it
// returns r with the bounds the query runs under, negative ones clamped
// to unlimited. The cache key, the pipeline and the trace all read the
// resolved request.
func (e *Explainer) resolve(r Request) Request {
	r.Budget = r.Budget.normalized()
	if !r.Budget.active() {
		r.Budget = e.opt.Budget.normalized()
	}
	return r
}

// Explain enumerates and ranks relationship explanations between two
// named entities. It is Query without a deadline, under Options.Budget.
func (e *Explainer) Explain(start, end string) (*Result, error) {
	return e.Query(context.Background(), Request{Pair: Pair{Start: start, End: end}})
}

// ExplainContext is Query for a pair under Options.Budget.
func (e *Explainer) ExplainContext(ctx context.Context, start, end string) (*Result, error) {
	return e.Query(ctx, Request{Pair: Pair{Start: start, End: end}})
}

// ExplainBudgeted is Query for a pair under b, resolved as a Request's
// bounds are: a zero b runs under Options.Budget.
func (e *Explainer) ExplainBudgeted(ctx context.Context, start, end string, b Budget) (*Result, error) {
	return e.Query(ctx, Request{Pair: Pair{Start: start, End: end}, Budget: b})
}

// Query enumerates and ranks relationship explanations between the
// request's two named entities under a context: cancellation or an
// expired deadline aborts enumeration, matching and ranking mid-flight
// (checked at bounded intervals) and returns ctx.Err(). An exhausted
// work budget is not an error: the query returns the best explanations
// found so far with Result.Truncated set (see Budget). When the
// explainer was built with a positive Options.CacheSize, results are
// served from and stored into the LRU cache; a miss computes, so
// concurrent identical misses each compute and the last to finish stays
// cached. Cached results are shared between callers and every result
// must be treated as read-only.
func (e *Explainer) Query(ctx context.Context, r Request) (*Result, error) {
	q := e.resolve(r)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Failpoint for the panic-containment tests: armed with a panicking
	// function it simulates an engine bug inside the query path; unarmed
	// it is a single atomic load.
	_ = fail.Hit("explain.query")
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	g := e.kb.g
	s := g.NodeByName(q.Start)
	if s == kb.InvalidNode {
		return nil, fmt.Errorf("rex: %w %q", ErrUnknownEntity, q.Start)
	}
	t := g.NodeByName(q.End)
	if t == kb.InvalidNode {
		return nil, fmt.Errorf("rex: %w %q", ErrUnknownEntity, q.End)
	}
	if s == t {
		return nil, fmt.Errorf("rex: start and end entity are both %q", q.Start)
	}
	var key string
	if e.cache != nil {
		key = queryKey(q)
		if res, ok := e.cache.get(key); ok {
			tr.MarkCacheHit()
			return tracedResult(res, tr, t0, q), nil
		}
	}
	res, err := e.compute(ctx, q, s, t)
	// Timeout-TRUNCATED results are wall-clock-dependent and never
	// stored: a result truncated under momentary load must not keep
	// answering for a pair that deserves the full budget later. An
	// untruncated result is byte-identical to the unbudgeted answer
	// regardless of the budget, and expansion-budget truncation is
	// deterministic — both cache fine (under the budget-suffixed key), so
	// a wall-clock default budget does not disable the cache for the
	// pairs that finish inside it.
	if err == nil && e.cache != nil && !(q.Timeout > 0 && res.Truncated) {
		e.cache.put(key, res)
	}
	return tracedResult(res, tr, t0, q), err
}

// compute runs the full enumerate → measure → rank → render pipeline
// for a resolved request whose entities are s and t, on the goroutine
// that asked. Every stage runs under bctx: ctx, bounded by q's Timeout
// when it has one.
func (e *Explainer) compute(ctx context.Context, q Request, s, t kb.NodeID) (*Result, error) {
	g := e.kb.g
	cfg := e.cfg
	cfg.Budget.MaxExpansions = q.MaxExpansions
	bctx := ctx
	if q.Timeout > 0 {
		var cancel context.CancelFunc
		bctx, cancel = enumerate.WithDeadline(ctx, time.Now().Add(q.Timeout))
		defer cancel()
	}
	mctx := &measure.Context{G: g, Start: s, End: t, Ctx: bctx}
	if needsGlobalSamples(e.m) {
		mctx.SampleStarts = measure.SampleStartsOfType(g, g.Node(s).Type, e.opt.GlobalSamples, e.opt.Seed)
	}

	var (
		ranked    []rank.Ranked
		truncated bool
		err       error
	)
	switch {
	case e.m.AntiMonotonic():
		ranked, truncated, err = rank.TopKAntiMonotoneBudgeted(bctx, g, s, t, cfg, mctx, e.m, e.opt.TopK)
	case isLimited(e.m):
		var es []*pattern.Explanation
		var etrunc, rtrunc bool
		es, etrunc, err = enumerate.ExplanationsBudgeted(bctx, g, s, t, cfg)
		if err == nil {
			ranked, rtrunc, err = rank.TopKDistributionalBudgeted(bctx, mctx, es, e.m.(measure.Limited), e.opt.TopK, time.Time{})
		}
		truncated = etrunc || rtrunc
	default:
		var es []*pattern.Explanation
		var etrunc, rtrunc bool
		es, etrunc, err = enumerate.ExplanationsBudgeted(bctx, g, s, t, cfg)
		if err == nil {
			ranked, rtrunc, err = rank.GeneralBudgeted(bctx, mctx, es, e.m, e.opt.TopK)
		}
		truncated = etrunc || rtrunc
	}
	if err != nil {
		return nil, err
	}
	// Final guard: a context that expired at the very end of ranking must
	// never let a possibly-partial result be returned — or worse, cached
	// and served to callers that had no deadline at all.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Start: q.Start, End: q.End, Measure: e.m.Name(), Truncated: truncated, enc: new(resultJSON)}
	for _, r := range ranked {
		res.Explanations = append(res.Explanations, e.render(r, q.SQL))
	}
	return res, nil
}

// queryKey builds the cache key for a resolved request. The cache
// belongs to exactly one explainer (and therefore one normalized option
// set), so the pair plus the bounds it runs under identifies the
// computation. Length-prefixing makes the key unambiguous for arbitrary
// entity names — no separator byte needs to be excluded — and
// unbudgeted queries keep the historical pair-only key shape. An answer
// with SQL is a different answer, so it is a different entry. It runs
// on every lookup, so it is one concatenation: no fmt, and strconv.Itoa
// does not allocate below 100.
func queryKey(q Request) string {
	budget := ""
	if q.active() {
		budget = "|x" + strconv.Itoa(q.MaxExpansions) + "|t" + strconv.FormatInt(int64(q.Timeout), 10)
	}
	sql := ""
	if q.SQL {
		sql = "|sql"
	}
	return strconv.Itoa(len(q.Start)) + ":" + q.Start + strconv.Itoa(len(q.End)) + ":" + q.End + budget + sql
}

func isLimited(m measure.Measure) bool {
	_, ok := m.(measure.Limited)
	return ok
}

// needsGlobalSamples reports whether a measure (or either half of a
// combination) evaluates a global distribution and therefore needs the
// sampled start entities in its context.
func needsGlobalSamples(m measure.Measure) bool {
	switch v := m.(type) {
	case measure.GlobalPosition, measure.GlobalDeviation:
		return true
	case measure.Combined:
		return needsGlobalSamples(v.Primary) || needsGlobalSamples(v.Secondary)
	}
	return false
}

// render converts an internal ranked explanation to the public shape,
// with its distributional SQL when the query asked for it.
func (e *Explainer) render(r rank.Ranked, sql bool) Explanation {
	g := e.kb.g
	ex := r.Ex
	out := Explanation{
		Pattern:      ex.P.String(),
		IsPath:       ex.P.IsPath(),
		Size:         ex.P.NumVars(),
		NumInstances: ex.Count(),
		Monocount:    ex.Monocount(),
		Score:        append([]float64{}, r.Score...),
	}
	if sql {
		out.SQL = relstore.SQL(g, ex.P, ex.Count(), -1)
	}
	// Enumeration leaves instance order unspecified; a rendered answer
	// lists them in key order, so only the TopK lists a query renders are
	// ever sorted. Sorting in place is safe: a query's explanations are
	// private to it, and the cache holds rendered results.
	slices.SortFunc(ex.Instances, func(a, b pattern.Instance) int { return a.Key().Compare(b.Key()) })
	if len(ex.Instances) > 0 {
		out.Description = ex.P.Describe(g, ex.Instances[0])
	} else {
		out.Description = ex.P.Describe(g, nil)
	}
	limit := e.opt.MaxInstancesPerExplanation
	for i, in := range ex.Instances {
		if limit > 0 && i >= limit {
			break
		}
		names := make([]string, len(in))
		for v, id := range in {
			names[v] = g.NodeName(id)
		}
		out.Instances = append(out.Instances, Instance{Bindings: names})
	}
	if e.opt.Decorate {
		for _, d := range decorate.Explanation(g, ex, decorate.Options{}) {
			out.Decorations = append(out.Decorations, d.Describe(g))
		}
	}
	return out
}
