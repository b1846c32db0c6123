package engine_test

import (
	"context"
	"encoding/json"
	"net/url"
	"testing"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/materials"
	"csmaterials/internal/serving"
)

// newDeltaExecutor wires the real analysis registry over a fresh
// dataset registry (seed corpus as "default") — the delta-refresh
// tests need real AffectedBy/ComputeWarm implementations, not fakes.
func newDeltaExecutor(t *testing.T) (*engine.Executor, *dataset.Registry) {
	t.Helper()
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: datasets,
		Cache:    serving.NewCache(64),
	})
	return exec, datasets
}

func mustRunOn(t *testing.T, exec *engine.Executor, name string, v url.Values) (interface{}, engine.Outcome) {
	t.Helper()
	val, out, err := exec.RunOn(context.Background(), dataset.DefaultID, name, v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return val, out
}

// cs1OnlyCourse returns a seed course that is in the cs1 group and in
// none of ds/dsalgo/pdc, so a delta touching it must leave results
// scoped to those groups migrated, not recomputed.
func cs1OnlyCourse(t *testing.T, snap *dataset.Snapshot) *materials.Course {
	t.Helper()
	for _, c := range snap.Repo().Courses() {
		if c.HasGroup(materials.GroupCS1) &&
			!c.HasGroup(materials.GroupDS) && !c.HasGroup(materials.GroupAlgo) &&
			!c.HasGroup(materials.GroupPDC) {
			return c
		}
	}
	t.Fatal("no cs1-only course in seed corpus")
	return nil
}

// sameTagsRetag builds the smallest possible delta: retag one material
// with its current tags. The course is touched (its results must not
// be trusted blindly) but no tag set changes, so warm recomputes can
// prove byte-identity.
func sameTagsRetag(c *materials.Course) []dataset.Event {
	m := c.Materials[0]
	return []dataset.Event{{
		Op: dataset.OpRetag, Course: c.ID, MaterialID: m.ID,
		Tags: append([]string(nil), m.Tags...),
	}}
}

// TestApplyDeltaPrecision is the acceptance gate for invalidation
// precision: a single-material retag must drop exactly the cache
// entries its delta can reach and migrate every other entry to the new
// revision's keys.
func TestApplyDeltaPrecision(t *testing.T) {
	exec, datasets := newDeltaExecutor(t)
	base := datasets.Default()
	touched := cs1OnlyCourse(t, base)
	var other *materials.Course
	for _, c := range base.Repo().Courses() {
		if c.ID != touched.ID {
			other = c
			break
		}
	}

	// Populate two group-scoped and two course-scoped results.
	mustRunOn(t, exec, "agreement", url.Values{"group": {"all"}})     // reachable: every group
	mustRunOn(t, exec, "agreement", url.Values{"group": {"pdc"}})     // unreachable: touched course is not pdc
	mustRunOn(t, exec, "anchors", url.Values{"course": {touched.ID}}) // reachable: the touched course
	mustRunOn(t, exec, "anchors", url.Values{"course": {other.ID}})   // unreachable: another course

	snap, err := datasets.Apply(dataset.DefaultID, sameTagsRetag(touched))
	if err != nil {
		t.Fatal(err)
	}
	out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)
	if out.Full {
		t.Fatal("delta snapshot must not fall back to a full refresh")
	}
	// Each computed result has a fresh and a stale last-known-good copy;
	// both migrate or drop together. Only the fresh copies count as
	// migrated, and only agreement (a WarmStarter) seeds a prior.
	if out.Migrated != 2 {
		t.Errorf("migrated = %d, want 2 (agreement|pdc, anchors|%s)", out.Migrated, other.ID)
	}
	if out.InvalidatedFresh != 2 || out.InvalidatedStale != 2 {
		t.Errorf("invalidated = (%d fresh, %d stale), want (2, 2)", out.InvalidatedFresh, out.InvalidatedStale)
	}
	if out.Seeded != 1 {
		t.Errorf("seeded = %d, want 1 (agreement|all)", out.Seeded)
	}

	// Migrated entries serve as hits under the new revision; dropped
	// entries recompute.
	if _, o := mustRunOn(t, exec, "agreement", url.Values{"group": {"pdc"}}); o.Cache != "hit" || o.Revision != snap.Revision() {
		t.Errorf("unaffected agreement = %q@rev%d, want hit@rev%d", o.Cache, o.Revision, snap.Revision())
	}
	if _, o := mustRunOn(t, exec, "anchors", url.Values{"course": {other.ID}}); o.Cache != "hit" {
		t.Errorf("unaffected anchors = %q, want hit", o.Cache)
	}
	if _, o := mustRunOn(t, exec, "anchors", url.Values{"course": {touched.ID}}); o.Cache != "miss" {
		t.Errorf("touched anchors = %q, want miss", o.Cache)
	}
	if _, o := mustRunOn(t, exec, "agreement", url.Values{"group": {"all"}}); o.Cache != "miss" {
		t.Errorf("touched agreement = %q, want miss", o.Cache)
	}
	st := exec.Stats().Refresh[dataset.DefaultID]
	if st.Delta != 1 || st.Full != 0 {
		t.Errorf("refresh counts = (%d delta, %d full), want (1, 0)", st.Delta, st.Full)
	}
	if st.WarmStarts != 1 || st.WarmFallbacks != 0 {
		t.Errorf("warm = (%d starts, %d fallbacks), want (1, 0)", st.WarmStarts, st.WarmFallbacks)
	}

	// A full PUT re-ingest (no delta on the snapshot) degrades to a
	// full refresh.
	doc := snap.Repo().Courses()
	putSnap, err := datasets.Put(dataset.DefaultID, doc)
	if err != nil {
		t.Fatal(err)
	}
	if out := exec.ApplyDelta(context.Background(), dataset.DefaultID, putSnap); !out.Full {
		t.Error("snapshot without a delta must refresh full")
	}
}

// TestApplyDeltaWarmTypes is the acceptance gate for warm-start
// recompute: after a tag-set-preserving retag, the NNMF types analysis
// must recompute warm in at most 10% of the cold iteration budget and
// produce a value byte-identical to a cold compute of the same
// revision.
func TestApplyDeltaWarmTypes(t *testing.T) {
	exec, datasets := newDeltaExecutor(t)
	touched := cs1OnlyCourse(t, datasets.Default())

	coldVal, o := mustRunOn(t, exec, "types", url.Values{"group": {"all"}})
	if o.Cache != "miss" {
		t.Fatalf("first types = %q, want miss", o.Cache)
	}

	snap, err := datasets.Apply(dataset.DefaultID, sameTagsRetag(touched))
	if err != nil {
		t.Fatal(err)
	}
	out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)
	if out.Seeded != 1 {
		t.Fatalf("seeded = %d, want 1 (types|all)", out.Seeded)
	}

	warmVal, o := mustRunOn(t, exec, "types", url.Values{"group": {"all"}})
	if o.Cache != "miss" || o.Revision != snap.Revision() {
		t.Fatalf("post-delta types = %q@rev%d, want miss@rev%d", o.Cache, o.Revision, snap.Revision())
	}
	st := exec.Stats().Refresh[dataset.DefaultID]
	if st.WarmStarts != 1 || st.WarmFallbacks != 0 {
		t.Fatalf("warm = (%d starts, %d fallbacks), want (1, 0)", st.WarmStarts, st.WarmFallbacks)
	}
	if st.WarmIterations == 0 || st.ColdIterations == 0 {
		t.Fatalf("iterations not recorded: warm=%d cold=%d", st.WarmIterations, st.ColdIterations)
	}
	if st.WarmIterations*10 > st.ColdIterations {
		t.Errorf("warm start took %d iterations vs %d cold: not within 10%%", st.WarmIterations, st.ColdIterations)
	}

	// Byte-identity, twice over: against the pre-delta value (the tag
	// sets did not change, so the model must not either) and against a
	// cold executor computing the new revision from scratch.
	warmJSON := mustJSON(t, warmVal)
	if got := mustJSON(t, coldVal); got != warmJSON {
		t.Error("warm value diverges from the prior revision's value despite unchanged tag sets")
	}
	coldExec, _ := func() (*engine.Executor, *dataset.Registry) {
		reg, err := analyses.Default()
		if err != nil {
			t.Fatal(err)
		}
		return engine.NewExecutor(reg, engine.ExecutorOptions{
			Datasets: datasets,
			Cache:    serving.NewCache(64),
		}), datasets
	}()
	freshVal, _ := mustRunOn(t, coldExec, "types", url.Values{"group": {"all"}})
	if got := mustJSON(t, freshVal); got != warmJSON {
		t.Error("warm value diverges from a cold recompute of the same revision")
	}
}

// TestApplyDeltaWarmAgreementRebase drives a delta that genuinely
// changes a course's tag set: the agreement analysis must rebase the
// prior counts (warm) and still match a cold recompute byte for byte.
func TestApplyDeltaWarmAgreementRebase(t *testing.T) {
	exec, datasets := newDeltaExecutor(t)
	base := datasets.Default()
	touched := cs1OnlyCourse(t, base)

	// A tag the course does not have, taken from another course so it
	// is a known curriculum entry.
	var newTag string
	have := touched.TagSet()
	for _, c := range base.Repo().Courses() {
		if c.ID == touched.ID {
			continue
		}
		for tag := range c.TagSet() {
			if !have[tag] {
				newTag = tag
				break
			}
		}
		if newTag != "" {
			break
		}
	}
	if newTag == "" {
		t.Fatal("no disjoint tag found")
	}

	mustRunOn(t, exec, "agreement", url.Values{"group": {"all"}})
	snap, err := datasets.Apply(dataset.DefaultID, []dataset.Event{{
		Op: dataset.OpRetag, Course: touched.ID,
		MaterialID: touched.Materials[0].ID, Tags: []string{newTag},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d := snap.Delta(); len(d.TagChanges) == 0 {
		t.Fatal("retag with a new tag must record tag changes")
	}
	exec.ApplyDelta(context.Background(), dataset.DefaultID, snap)

	warmVal, _ := mustRunOn(t, exec, "agreement", url.Values{"group": {"all"}})
	if st := exec.Stats().Refresh[dataset.DefaultID]; st.WarmStarts != 1 {
		t.Fatalf("warm starts = %d, want 1", st.WarmStarts)
	}

	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	coldExec := engine.NewExecutor(reg, engine.ExecutorOptions{
		Datasets: datasets,
		Cache:    serving.NewCache(64),
	})
	coldVal, _ := mustRunOn(t, coldExec, "agreement", url.Values{"group": {"all"}})
	if mustJSON(t, warmVal) != mustJSON(t, coldVal) {
		t.Error("rebased agreement diverges from a cold recompute of the same revision")
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestApplyDeltaDropsOlderRevisionKeys pins the revision check of a
// delta refresh: a delta r→r+1 describes only the change from revision
// r, so an entry cached under an older revision (here: a revision-1
// compute whose store landed after the PATCH to revision 2) must be
// dropped, neither migrated to r+1 nor kept as a warm-start prior.
// Carrying it forward would serve revision 1's answer without revision
// 2's change.
func TestApplyDeltaDropsOlderRevisionKeys(t *testing.T) {
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	cache := serving.NewCache(64)
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: datasets, Cache: cache})
	base := datasets.Default()
	touched := cs1OnlyCourse(t, base)
	var other *materials.Course
	for _, c := range base.Repo().Courses() {
		if c.ID != touched.ID {
			other = c
			break
		}
	}
	var newTag string
	have := touched.TagSet()
	for _, c := range base.Repo().Courses() {
		for tag := range c.TagSet() {
			if !have[tag] && (newTag == "" || tag < newTag) {
				newTag = tag
			}
		}
	}

	// Revision 1 answers: the audit of the touched course (unaffected by
	// the second delta, so a stale copy would be migrated) and
	// agreement over every group (affected, so a stale copy would seed
	// a warm rebase).
	auditQ := url.Values{"course": {touched.ID}}
	agreementQ := url.Values{"group": {"all"}}
	rev1Audit, auditOut := mustRunOn(t, exec, "audit", auditQ)
	rev1Agreement, agreementOut := mustRunOn(t, exec, "agreement", agreementQ)

	// Revision 2 changes the touched course's tag set.
	snap2, err := datasets.Apply(dataset.DefaultID, []dataset.Event{{
		Op: dataset.OpRetag, Course: touched.ID,
		MaterialID: touched.Materials[0].ID, Tags: []string{newTag},
	}})
	if err != nil {
		t.Fatal(err)
	}
	exec.ApplyDelta(context.Background(), dataset.DefaultID, snap2)

	// Late stores of the revision-1 computes.
	for key, val := range map[string]interface{}{
		"default@1|" + auditOut.Key:     rev1Audit,
		"default@1|" + agreementOut.Key: rev1Agreement,
	} {
		val := val
		if _, _, err := cache.DoCtxFn(context.Background(), key, func(context.Context) (interface{}, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// Revision 3 touches only another course.
	snap3, err := datasets.Apply(dataset.DefaultID, sameTagsRetag(other))
	if err != nil {
		t.Fatal(err)
	}
	out := exec.ApplyDelta(context.Background(), dataset.DefaultID, snap3)
	if out.Migrated != 0 || out.Seeded != 0 {
		t.Errorf("revision-1 entries carried into revision 3: migrated %d, seeded %d; want 0, 0", out.Migrated, out.Seeded)
	}
	if out.InvalidatedFresh != 2 {
		t.Errorf("invalidated fresh = %d, want 2 (both revision-1 entries)", out.InvalidatedFresh)
	}

	coldExec := engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(64)})
	for _, c := range []struct {
		name string
		q    url.Values
		rev1 interface{}
	}{{"audit", auditQ, rev1Audit}, {"agreement", agreementQ, rev1Agreement}} {
		got, o := mustRunOn(t, exec, c.name, c.q)
		if o.Cache != "miss" || o.Revision != snap3.Revision() {
			t.Errorf("%s after delta = %q@rev%d, want miss@rev%d", c.name, o.Cache, o.Revision, snap3.Revision())
		}
		cold, _ := mustRunOn(t, coldExec, c.name, c.q)
		if mustJSON(t, cold) == mustJSON(t, c.rev1) {
			t.Fatalf("%s: revision 2 did not change the answer; the check would prove nothing", c.name)
		}
		if mustJSON(t, got) != mustJSON(t, cold) {
			t.Errorf("%s at revision 3 differs from a cold recompute", c.name)
		}
	}
}

// TestApplyDeltaPDCMaterialsCourseWithSeparator: the pdcmaterials key
// is "<course>|<limit>" and a course ID may itself contain '|'. A delta
// that changes such a course must drop its cached recommendations, not
// migrate them under the new revision.
func TestApplyDeltaPDCMaterialsCourseWithSeparator(t *testing.T) {
	reg, err := analyses.Default()
	if err != nil {
		t.Fatal(err)
	}
	datasets := dataset.NewRegistry(nil)
	seed := datasets.Default().Repo().Courses()
	piped := seed[0].Clone()
	piped.ID = "x|y"
	if _, err := datasets.Put("pipes", []*materials.Course{piped, seed[1], seed[2]}); err != nil {
		t.Fatal(err)
	}
	exec := engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(64)})
	q := url.Values{"course": {piped.ID}}
	run := func(e *engine.Executor) (interface{}, engine.Outcome) {
		t.Helper()
		v, out, err := e.RunOn(context.Background(), "pipes", "pdcmaterials", q)
		if err != nil {
			t.Fatal(err)
		}
		return v, out
	}
	before, _ := run(exec)

	var events []dataset.Event
	for _, m := range piped.Materials[1:] {
		events = append(events, dataset.Event{Op: dataset.OpRemove, Course: piped.ID, MaterialID: m.ID})
	}
	snap, err := datasets.Apply("pipes", events)
	if err != nil {
		t.Fatal(err)
	}
	if out := exec.ApplyDelta(context.Background(), "pipes", snap); out.Migrated != 0 {
		t.Errorf("ApplyDelta migrated %d entries of the changed course, want 0", out.Migrated)
	}

	got, out := run(exec)
	if out.Cache != "miss" {
		t.Errorf("after the delta: cache = %q, want miss", out.Cache)
	}
	cold, _ := run(engine.NewExecutor(reg, engine.ExecutorOptions{Datasets: datasets, Cache: serving.NewCache(64)}))
	if mustJSON(t, cold) == mustJSON(t, before) {
		t.Fatal("the delta did not change the answer; the check would prove nothing")
	}
	if mustJSON(t, got) != mustJSON(t, cold) {
		t.Error("pdcmaterials after the delta differs from a cold recompute")
	}
}
