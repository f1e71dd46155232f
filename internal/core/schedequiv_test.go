package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// The schedule-equivalence fixture pins the comparison schedule itself: for
// every algorithm and termination mode (completion, budget exhaustion,
// mid-phase cancellation) at fixed seeds, a recording comparator folds each
// ask — the ordered (a.ID, b.ID, class) triple — into one FNV-1a hash, and the
// fixture pins that hash together with the answer fingerprint, the paid and
// memoized comparison counts, the monetary cost and the ledger's logical
// steps. A refactor that reorders, drops or duplicates a single comparison
// moves the sequence hash even when the answer happens to survive.
//
// The workers are deliberately STATEFUL (stream-driven random tie-breaking):
// a changed comparison sequence also desynchronizes the tie stream, so the
// answer and counts diverge too instead of agreeing by accident.
//
// To regenerate after an intended change to the sequence, run the tests and
// paste the printed literals into schedPins.

// schedPin is one run's pinned outcome.
type schedPin struct {
	seq    uint64 // FNV-1a over the ordered (a.ID, b.ID, class) asks
	answer uint64 // FNV-1a of the answer fingerprint, incl. error text
	naive  int64
	expert int64
	memo   int64
	cost   float64
	steps  int64
}

func (p schedPin) literal() string {
	return fmt.Sprintf("{%#x, %#x, %d, %d, %d, %g, %d}",
		p.seq, p.answer, p.naive, p.expert, p.memo, p.cost, p.steps)
}

// seqLog is the hash shared by a run's recording comparators, so naive and
// expert asks land in one ordered sequence.
type seqLog struct {
	h   hash.Hash64
	buf []byte
}

// recorder wraps a comparator and logs every ask into a seqLog.
type recorder struct {
	inner worker.Comparator
	class worker.Class
	log   *seqLog
}

func (r *recorder) Compare(a, b item.Item) item.Item {
	buf := binary.LittleEndian.AppendUint64(r.log.buf[:0], uint64(a.ID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.ID))
	r.log.buf = binary.LittleEndian.AppendUint64(buf, uint64(r.class))
	r.log.h.Write(r.log.buf)
	return r.inner.Compare(a, b)
}

// schedRig is one run's fixture: fresh ledger, memoized oracles, and
// stateful seeded workers behind recording comparators.
type schedRig struct {
	ledger *cost.Ledger
	naive  *tournament.Oracle
	expert *tournament.Oracle
	prices cost.Prices
	items  []item.Item
	r      *rng.Source
	log    *seqLog
}

// newSchedRig builds the fixture for one seeded run. The naive comparator is
// wrapped by wrapNaive when non-nil (the cancellation case hooks call
// counting there), inside the recorder.
func newSchedRig(seed uint64, n, un int, wrapNaive func(worker.Comparator) worker.Comparator) *schedRig {
	r := rng.New(seed)
	cal, err := dataset.UniformCalibrated(n, un, 1, r.Child("data"))
	if err != nil {
		panic(err)
	}
	deltaE, err := cal.Set.DeltaForU(min(3, n))
	if err != nil {
		panic(err)
	}
	ledger := cost.NewLedger()
	log := &seqLog{h: fnv.New64a()}
	var nw worker.Comparator = &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("naive")}, R: r.Child("nw")}
	if wrapNaive != nil {
		nw = wrapNaive(nw)
	}
	ew := &worker.Threshold{Delta: deltaE, Tie: worker.RandomTie{R: r.Child("expert")}, R: r.Child("ew")}
	return &schedRig{
		ledger: ledger,
		naive:  tournament.NewOracle(&recorder{inner: nw, class: worker.Naive, log: log}, worker.Naive, ledger, tournament.NewMemo(n)),
		expert: tournament.NewOracle(&recorder{inner: ew, class: worker.Expert, log: log}, worker.Expert, ledger, tournament.NewMemo(n)),
		prices: cost.Prices{Naive: 1, Expert: 25},
		items:  cal.Set.Items(),
		r:      r,
		log:    log,
	}
}

// pin closes the run: sequence hash, answer fingerprint, ledger readings.
func (rig *schedRig) pin(answer string) schedPin {
	h := fnv.New64a()
	h.Write([]byte(answer))
	return schedPin{
		seq:    rig.log.h.Sum64(),
		answer: h.Sum64(),
		naive:  rig.ledger.Naive(),
		expert: rig.ledger.Expert(),
		memo:   rig.ledger.MemoHits(worker.Naive) + rig.ledger.MemoHits(worker.Expert),
		cost:   rig.ledger.Cost(rig.prices),
		steps:  rig.ledger.Steps(),
	}
}

// fpItems fingerprints an item list order-sensitively.
func fpItems(items []item.Item) string {
	s := "["
	for _, it := range items {
		s += fmt.Sprintf("%d,", it.ID)
	}
	return s + "]"
}

// fpErr appends an error to a fingerprint so error paths are pinned too.
func fpErr(s string, err error) string {
	if err != nil {
		return s + "|err:" + err.Error()
	}
	return s
}

// fpFindMax fingerprints a two-phase result.
func fpFindMax(res FindMaxResult, err error) string {
	return fpErr(fmt.Sprintf("best=%d cand=%s", res.Best.ID, fpItems(res.Candidates)), err)
}

// cancelAfter cancels a context after exactly limit comparator calls,
// modelling a mid-phase shutdown at a deterministic point.
type cancelAfter struct {
	inner  worker.Comparator
	calls  int
	limit  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Compare(a, b item.Item) item.Item {
	c.calls++
	if c.calls == c.limit {
		c.cancel()
	}
	return c.inner.Compare(a, b)
}

// schedCase is one fixture row: test is the top-level test it runs under,
// sub its subtest name ("" for none), and run performs one seeded run and
// returns its pinned outcome.
type schedCase struct {
	test, sub string
	seeds     int
	run       func(t *testing.T, seed uint64) schedPin
}

func findMaxCase(p2 Phase2Algorithm) schedCase {
	return schedCase{"FindMaxAllPhase2s", p2.String(), 6, func(t *testing.T, seed uint64) schedPin {
		rig := newSchedRig(seed, 140+int(seed)*29, 4, nil)
		res, err := FindMax(context.Background(), rig.items, rig.naive, rig.expert, FindMaxOptions{
			Un:         4,
			Phase2:     p2,
			Randomized: RandomizedOptions{R: rig.r.Child("p2")},
		})
		return rig.pin(fpFindMax(res, err))
	}}
}

var schedCases = []schedCase{
	// The subtest name predates the removal of loss tracking; it keys the
	// pins below.
	{"Filter", "trackLosses=false", 8, func(t *testing.T, seed uint64) schedPin {
		rig := newSchedRig(seed, 150+int(seed)*31, 4, nil)
		out, err := Filter(context.Background(), rig.items, rig.naive, FilterOptions{Un: 4})
		return rig.pin(fpErr(fpItems(out), err))
	}},
	{"TwoMaxFind", "", 8, func(t *testing.T, seed uint64) schedPin {
		rig := newSchedRig(seed, 60+int(seed)*17, 4, nil)
		best, err := TwoMaxFind(context.Background(), rig.items, rig.expert)
		return rig.pin(fpErr(fmt.Sprintf("best=%d", best.ID), err))
	}},
	{"Randomized", "", 6, func(t *testing.T, seed uint64) schedPin {
		rig := newSchedRig(seed, 120+int(seed)*23, 4, nil)
		best, err := RandomizedMaxFind(context.Background(), rig.items, rig.expert,
			RandomizedOptions{R: rig.r.Child("p2")})
		return rig.pin(fpErr(fmt.Sprintf("best=%d", best.ID), err))
	}},
	findMaxCase(Phase2TwoMaxFind),
	findMaxCase(Phase2Randomized),
	findMaxCase(Phase2AllPlayAll),
	{"TopK", "", 4, func(t *testing.T, seed uint64) schedPin {
		rig := newSchedRig(seed, 90+int(seed)*13, 3, nil)
		top, err := TopK(context.Background(), rig.items, rig.naive, rig.expert, TopKOptions{
			K: 3, U: 3,
		})
		return rig.pin(fpErr(fpItems(top), err))
	}},
	// A hard comparison budget truncates the run mid-flight; the pin fixes
	// the exact comparison it exhausts at and the partial result.
	{"BudgetExhaustion", "", 6, func(t *testing.T, seed uint64) schedPin {
		rig := newSchedRig(seed, 150+int(seed)*31, 4, nil)
		budget := dispatch.NewBudget(dispatch.Limits{
			MaxNaive:  900 + int64(seed)*137,
			MaxExpert: 40,
		})
		rig.naive.WithBudget(budget)
		rig.expert.WithBudget(budget)
		res, err := FindMax(context.Background(), rig.items, rig.naive, rig.expert, FindMaxOptions{Un: 4})
		if !errors.Is(err, dispatch.ErrBudgetExhausted) {
			t.Fatalf("want ErrBudgetExhausted, got %v", err)
		}
		return rig.pin(fpFindMax(res, err))
	}},
	// Cancellation fires after a fixed number of naive comparisons — mid
	// filter iteration — so every later ask fails its ctx check and the run
	// returns the last completed iteration's survivors.
	{"MidPhaseCancellation", "", 6, func(t *testing.T, seed uint64) schedPin {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rig := newSchedRig(seed, 150+int(seed)*31, 4, func(inner worker.Comparator) worker.Comparator {
			return &cancelAfter{inner: inner, limit: 700 + int(seed)*101, cancel: cancel}
		})
		res, err := FindMax(ctx, rig.items, rig.naive, rig.expert, FindMaxOptions{Un: 4})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		return rig.pin(fpFindMax(res, err))
	}},
}

// runSchedCases runs every fixture row of one top-level test, one subtest
// per seed, against schedPins.
func runSchedCases(t *testing.T, test string) {
	ran := false
	for _, c := range schedCases {
		if c.test != test {
			continue
		}
		ran = true
		run := func(t *testing.T) {
			for seed := uint64(1); seed <= uint64(c.seeds); seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					got := c.run(t, seed)
					want, ok := schedPins[t.Name()]
					if !ok || got != want {
						t.Errorf("comparison schedule moved; got\n\t%q: %s,", t.Name(), got.literal())
					}
				})
			}
		}
		if c.sub == "" {
			run(t)
		} else {
			t.Run(c.sub, run)
		}
	}
	if !ran {
		t.Fatalf("no fixture rows for %s", test)
	}
}

func TestSchedEquivFilter(t *testing.T)               { runSchedCases(t, "Filter") }
func TestSchedEquivTwoMaxFind(t *testing.T)           { runSchedCases(t, "TwoMaxFind") }
func TestSchedEquivRandomized(t *testing.T)           { runSchedCases(t, "Randomized") }
func TestSchedEquivFindMaxAllPhase2s(t *testing.T)    { runSchedCases(t, "FindMaxAllPhase2s") }
func TestSchedEquivTopK(t *testing.T)                 { runSchedCases(t, "TopK") }
func TestSchedEquivBudgetExhaustion(t *testing.T)     { runSchedCases(t, "BudgetExhaustion") }
func TestSchedEquivMidPhaseCancellation(t *testing.T) { runSchedCases(t, "MidPhaseCancellation") }

// schedPins holds the pinned outcome of every fixture run, keyed by the
// seed subtest's full name.
var schedPins = map[string]schedPin{
	"TestSchedEquivFilter/trackLosses=false/seed=1":       {0x2953204301654dc3, 0xca38bea50137e7f6, 1667, 0, 89, 1667, 16},
	"TestSchedEquivFilter/trackLosses=false/seed=2":       {0xbe36bd95a1d9bc04, 0xaabdd5bee19acbb6, 1963, 0, 105, 1963, 18},
	"TestSchedEquivFilter/trackLosses=false/seed=3":       {0x3c2647344999c187, 0x19656a34835b8408, 2271, 0, 114, 2271, 20},
	"TestSchedEquivFilter/trackLosses=false/seed=4":       {0x7333906f4706ef7b, 0xb55d0f36db7f29f2, 2547, 0, 146, 2547, 25},
	"TestSchedEquivFilter/trackLosses=false/seed=5":       {0xac001b942552f36b, 0x8d3a29ce81f077a9, 2840, 0, 144, 2840, 27},
	"TestSchedEquivFilter/trackLosses=false/seed=6":       {0x983c1a5bac4f60f5, 0x1b04d9d18e2b2e3, 3125, 0, 158, 3125, 29},
	"TestSchedEquivFilter/trackLosses=false/seed=7":       {0x26bd3ca78eb7aacd, 0x80951f43706d1d1a, 3385, 0, 174, 3385, 31},
	"TestSchedEquivFilter/trackLosses=false/seed=8":       {0x453ec4d5d338917d, 0x4fd2d35fb3f62f04, 3694, 0, 183, 3694, 33},
	"TestSchedEquivTwoMaxFind/seed=1":                     {0xde6f09c179f2b721, 0x1daffacd9a12a9c2, 0, 104, 0, 2600, 2},
	"TestSchedEquivTwoMaxFind/seed=2":                     {0xb207640c29deec34, 0x84c51f5ccdc772a6, 0, 157, 8, 3925, 3},
	"TestSchedEquivTwoMaxFind/seed=3":                     {0xcddeafb641627780, 0x84b4225ccdb9048c, 0, 155, 1, 3875, 2},
	"TestSchedEquivTwoMaxFind/seed=4":                     {0x71cf1eeaf92245e0, 0x84b4255ccdb909a5, 0, 227, 10, 5675, 3},
	"TestSchedEquivTwoMaxFind/seed=5":                     {0xdf85fde4b8ba28a7, 0x84beb35ccdc24f74, 0, 238, 8, 5950, 3},
	"TestSchedEquivTwoMaxFind/seed=6":                     {0x9e191c949e7778e5, 0x84cfb05ccdd0bd8e, 0, 237, 5, 5925, 3},
	"TestSchedEquivTwoMaxFind/seed=7":                     {0x83c71c3774def4f0, 0x7da666b1b9b2615b, 0, 337, 14, 8425, 4},
	"TestSchedEquivTwoMaxFind/seed=8":                     {0x3c584b2e7b66aba4, 0x7db3e3b1b9bdc01e, 0, 273, 1, 6825, 2},
	"TestSchedEquivRandomized/seed=1":                     {0xe998e009d7290fc4, 0x7db057b1b9ba9c63, 0, 10153, 484084, 253825, 1},
	"TestSchedEquivRandomized/seed=2":                     {0x1b9fdaae9ab67e45, 0x84c51f5ccdc772a6, 0, 13695, 757561, 342375, 1},
	"TestSchedEquivRandomized/seed=3":                     {0x5ea755ebbbef50c5, 0x1db000cd9a12b3f4, 0, 17766, 1119339, 444150, 1},
	"TestSchedEquivRandomized/seed=4":                     {0x2a5ea4d34d0b88e5, 0x7da2e3b1b9af4ceb, 0, 22366, 1581900, 559150, 1},
	"TestSchedEquivRandomized/seed=5":                     {0xb1a8144486184664, 0x84beb35ccdc24f74, 0, 27495, 2156335, 687375, 1},
	"TestSchedEquivRandomized/seed=6":                     {0x5d7131a9debda223, 0x7d956bb1b9a3f6a7, 0, 32875, 2552715, 821875, 7},
	"TestSchedEquivFindMaxAllPhase2s/2-MaxFind/seed=1":    {0xb0171352703ae387, 0x50d5f3494827bc0, 1533, 2, 87, 1583, 17},
	"TestSchedEquivFindMaxAllPhase2s/2-MaxFind/seed=2":    {0x7f82839575b33116, 0xdc73521e9135763e, 1833, 3, 103, 1908, 20},
	"TestSchedEquivFindMaxAllPhase2s/2-MaxFind/seed=3":    {0xee618674f8fad5b3, 0x4b0728c0b0c894eb, 2107, 3, 108, 2182, 21},
	"TestSchedEquivFindMaxAllPhase2s/2-MaxFind/seed=4":    {0xeb8ca363dad9fc68, 0x3ce5611baa2cbe61, 2388, 5, 117, 2513, 23},
	"TestSchedEquivFindMaxAllPhase2s/2-MaxFind/seed=5":    {0xac4266219529d794, 0x74035ffb6d7ebf6e, 2617, 7, 129, 2792, 26},
	"TestSchedEquivFindMaxAllPhase2s/2-MaxFind/seed=6":    {0x5bb1d70b180af8d3, 0x8333bade41ba580e, 2914, 7, 131, 3089, 28},
	"TestSchedEquivFindMaxAllPhase2s/randomized/seed=1":   {0xbffa9b2c3c5bc00f, 0x45e4e6bc24385d0e, 1533, 3, 91, 1608, 16},
	"TestSchedEquivFindMaxAllPhase2s/randomized/seed=2":   {0xfe2ac9780f94b897, 0x159914eca2a8ff66, 1833, 6, 109, 1983, 19},
	"TestSchedEquivFindMaxAllPhase2s/randomized/seed=3":   {0x6e1196a3409b0492, 0x4b0728c0b0c894eb, 2107, 6, 118, 2257, 20},
	"TestSchedEquivFindMaxAllPhase2s/randomized/seed=4":   {0x794f981d05e98001, 0x757f8fdf5fe6d71a, 2388, 10, 137, 2638, 22},
	"TestSchedEquivFindMaxAllPhase2s/randomized/seed=5":   {0x36bd3829b386f2f6, 0xef6c6f732085d9ff, 2617, 21, 174, 3142, 25},
	"TestSchedEquivFindMaxAllPhase2s/randomized/seed=6":   {0xd41762af47d4882a, 0xdf1488bb11d5a7b, 2914, 21, 181, 3439, 27},
	"TestSchedEquivFindMaxAllPhase2s/all-play-all/seed=1": {0xd2dc3d4ea926e9cf, 0x50d5f3494827bc0, 1533, 3, 87, 1608, 16},
	"TestSchedEquivFindMaxAllPhase2s/all-play-all/seed=2": {0x69364c322ffd0197, 0xdc73521e9135763e, 1833, 6, 102, 1983, 19},
	"TestSchedEquivFindMaxAllPhase2s/all-play-all/seed=3": {0x30d090e48fc97452, 0x4b0728c0b0c894eb, 2107, 6, 108, 2257, 20},
	"TestSchedEquivFindMaxAllPhase2s/all-play-all/seed=4": {0x45b98b237ae24581, 0x3ce5611baa2cbe61, 2388, 10, 117, 2638, 22},
	"TestSchedEquivFindMaxAllPhase2s/all-play-all/seed=5": {0x84f816dbfef0999e, 0x74035ffb6d7ebf6e, 2617, 21, 129, 3142, 25},
	"TestSchedEquivFindMaxAllPhase2s/all-play-all/seed=6": {0x8429ef7f1a6336c2, 0xdf1488bb11d5a7b, 2914, 21, 131, 3439, 27},
	"TestSchedEquivTopK/seed=1":                           {0xb9286025fe2c5fea, 0x78099cb9d240455a, 820, 5, 1317, 945, 30},
	"TestSchedEquivTopK/seed=2":                           {0x3f4b031c914e9626, 0x7a13e51d4b8cd32, 890, 6, 1455, 1040, 31},
	"TestSchedEquivTopK/seed=3":                           {0x9a201b85f3a4ac89, 0x42a87a61731e4438, 1006, 5, 1673, 1131, 35},
	"TestSchedEquivTopK/seed=4":                           {0xec34a326a273199a, 0xd30aa7a804e2f57f, 1135, 4, 1832, 1235, 39},
	"TestSchedEquivBudgetExhaustion/seed=1":               {0x5e9bba9baec80f4b, 0x616f34f38f12df94, 1037, 0, 0, 1037, 9},
	"TestSchedEquivBudgetExhaustion/seed=2":               {0xfb3da8cefa2ad6c6, 0x35680047fb0b40b9, 1174, 0, 0, 1174, 10},
	"TestSchedEquivBudgetExhaustion/seed=3":               {0x22357eaae0c238e2, 0xc72063da2d7388fd, 1311, 0, 0, 1311, 11},
	"TestSchedEquivBudgetExhaustion/seed=4":               {0xecc2fa459565832d, 0x9b393b3b1de78056, 1448, 0, 0, 1448, 13},
	"TestSchedEquivBudgetExhaustion/seed=5":               {0xa828f4c8ff81e5a4, 0x90f32f261876953c, 1585, 0, 0, 1585, 14},
	"TestSchedEquivBudgetExhaustion/seed=6":               {0x7c1f34d07f80bda5, 0x4b08a83c94d515d8, 1722, 0, 0, 1722, 15},
	"TestSchedEquivMidPhaseCancellation/seed=1":           {0x5803832b2ee78f, 0x8356906089d8e88b, 801, 0, 0, 801, 7},
	"TestSchedEquivMidPhaseCancellation/seed=2":           {0x3930296234d261ad, 0x95cffb86d807c67c, 902, 0, 0, 902, 8},
	"TestSchedEquivMidPhaseCancellation/seed=3":           {0x9d1d26fe21a669e2, 0x69994c0adfbfa79b, 1003, 0, 0, 1003, 9},
	"TestSchedEquivMidPhaseCancellation/seed=4":           {0x1269bc326fd984e, 0xf26640b073355573, 1104, 0, 0, 1104, 10},
	"TestSchedEquivMidPhaseCancellation/seed=5":           {0x2a549311924e8e84, 0x3f6aa6b4fd35ca7d, 1205, 0, 0, 1205, 11},
	"TestSchedEquivMidPhaseCancellation/seed=6":           {0xaed683e0f37137a5, 0x6c0ed61ab0555d00, 1306, 0, 0, 1306, 11},
}
