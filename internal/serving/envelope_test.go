package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// envelope is the two-member struct WriteEnvelope must reproduce.
type envelope struct {
	Data interface{} `json:"data"`
	Meta interface{} `json:"meta"`
}

// tagged exercises struct encoding inside an envelope: omitempty, a nil
// pointer, a nil slice, and a key that needs HTML escaping.
type tagged struct {
	Name  string      `json:"name,omitempty"`
	Ptr   *float64    `json:"ptr"`
	List  []string    `json:"list"`
	Odd   interface{} `json:"<odd&key>,omitempty"`
	Count int         `json:"count,string"`
}

// valueGen decodes fuzz bytes into a value tree of every shape the
// encoder treats specially.
type valueGen struct{ b []byte }

func (g *valueGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

var specialStrings = []string{"<", ">", "&", "\u2028", "\u2029", "\xff", "\xc3", "é", `"`, `\`, "\n", "\x00", ""}

func (g *valueGen) str() string {
	var out []byte
	for n := g.next() % 6; n > 0; n-- {
		c := g.next()
		if c%3 == 0 {
			out = append(out, specialStrings[int(c/3)%len(specialStrings)]...)
		} else {
			out = append(out, c)
		}
	}
	return string(out)
}

func (g *valueGen) value(depth int) interface{} {
	op := g.next() % 16
	if depth > 4 && op >= 8 {
		op %= 8
	}
	switch op {
	case 0:
		return nil
	case 1:
		return g.str()
	case 2:
		return float64(int8(g.next())) / 8
	case 3:
		return g.next()%2 == 0
	case 4:
		return []string(nil)
	case 5:
		return map[string]int(nil)
	case 6:
		return []interface{}{}
	case 7:
		return map[string]interface{}{}
	case 8, 9:
		out := []interface{}{}
		for n := g.next() % 4; n > 0; n-- {
			out = append(out, g.value(depth+1))
		}
		return out
	case 10, 11:
		out := map[string]interface{}{}
		for n := g.next() % 4; n > 0; n-- {
			out[g.str()] = g.value(depth + 1)
		}
		return out
	case 12:
		t := tagged{Name: g.str(), Count: int(int8(g.next()))}
		if g.next()%2 == 0 {
			f := float64(g.next())
			t.Ptr = &f
		}
		if g.next()%2 == 0 {
			t.List = []string{g.str()}
		}
		t.Odd = g.value(depth + 1)
		return t
	case 13:
		return json.RawMessage(g.str()) // usually invalid: both writers must fail alike
	case 14:
		if g.next()%4 == 0 {
			return math.NaN() // unsupported: both writers leave the body empty
		}
		return []byte(g.str())
	default:
		return &tagged{List: []string{}}
	}
}

// checkEnvelope compares WriteEnvelope, with and without cached data
// bytes, against WriteJSON of the two-member struct.
func checkEnvelope(t *testing.T, status int, data, meta interface{}) {
	t.Helper()
	want := httptest.NewRecorder()
	WriteJSON(want, status, envelope{Data: data, Meta: meta})

	// A plain entry encodes on the spot; a cached one encodes into its
	// shared cell on first use and writes from it the second time.
	cached := Entry{Val: data, enc: &encoding{}}
	entries := []Entry{{Val: data}, cached, cached}
	for i, e := range entries {
		got := httptest.NewRecorder()
		WriteEnvelope(got, status, e, meta)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("entry %d: status %d %q, WriteJSON %d %q", i, got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("entry %d: envelope bytes differ\n got: %q\nwant: %q", i, got.Body.Bytes(), want.Body.Bytes())
		}
	}
}

func TestWriteEnvelopeMatchesWriteJSON(t *testing.T) {
	f := 1.5
	cases := []struct {
		data, meta interface{}
	}{
		{nil, struct{}{}},
		{[]string(nil), map[string]int(nil)},
		{[]interface{}{}, map[string]interface{}{}},
		{"<script>&\u2028\u2029\xff", map[string]string{"k<": "v&"}},
		{map[string]interface{}{"a": []interface{}{1, "x", map[string]interface{}{}, []int{}}, "b": nil}, []int{1, 2}},
		{tagged{Name: "n", Ptr: &f, List: []string{}, Count: -3}, tagged{}},
		{json.RawMessage(`{"a" : [1, 2]}`), 7},
		{math.Inf(1), 1},
		{1, math.NaN()},
	}
	for _, c := range cases {
		checkEnvelope(t, http.StatusOK, c.data, c.meta)
	}
}

// FuzzEnvelopeBytes: for arbitrary value trees — HTML-escaped
// characters, U+2028/U+2029, invalid UTF-8, nil and empty slices and
// maps, structs, raw messages, unsupported values, nesting — the
// envelope WriteEnvelope assembles equals WriteJSON of
// {"data": data, "meta": meta} byte for byte.
func FuzzEnvelopeBytes(f *testing.F) {
	for _, seed := range []string{
		"", "\x01\x03<", "\x08\x02\x01\x0a\x01\x02\x03\x00", "\x0a\x03\x03\x06\x01\x03\x09",
		"\x0c\x02ab\x00\x05\x00\x01\x02\xff\x00\x01", "\x0d\x03{}x", "\x0e\x00", "\x09\x03\x08\x03\x08\x02\x07\x04",
	} {
		f.Add([]byte(seed), uint8(0))
	}
	f.Fuzz(func(t *testing.T, b []byte, statusPick uint8) {
		g := &valueGen{b: b}
		data := g.value(0)
		meta := g.value(0)
		status := []int{http.StatusOK, http.StatusCreated, http.StatusNotFound}[int(statusPick)%3]
		checkEnvelope(t, status, data, meta)
	})
}

// countedValue counts its encodings.
type countedValue struct{ n *int32 }

func (v countedValue) MarshalJSON() ([]byte, error) {
	atomic.AddInt32(v.n, 1)
	return []byte(`{"v":1}`), nil
}

// TestEntryEncodedOnceAcrossMoves: a cached value is not encoded until
// a writer asks, then exactly once, however many readers ask at once,
// and its fresh copy, stale copy and Rekey-migrated entry all return
// those same bytes. A Rekey drop removes them with the value.
func TestEntryEncodedOnceAcrossMoves(t *testing.T) {
	var n int32
	c := NewCache(2)
	compute := func(context.Context) (interface{}, error) { return countedValue{&n}, nil }
	e, _, err := c.DoCtxFn(context.Background(), "ds@1|k", compute)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&n); got != 0 {
		t.Fatalf("storing encoded the value %d times; want it left to the first writer", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b, err := e.Data(); err != nil || string(b) != "{\n    \"v\": 1\n  }" {
				t.Errorf("Data = %q, %v", b, err)
			}
		}()
	}
	wg.Wait()
	first, _ := e.Data()
	same := func(where string, e Entry, ok bool, want []byte) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: entry missing", where)
		}
		b, err := e.Data()
		if err != nil || &b[0] != &want[0] {
			t.Fatalf("%s: Data() returned other bytes (%q, %v)", where, b, err)
		}
	}
	hit, ok := c.Get("ds@1|k")
	same("hit", hit, ok, first)
	c.Reset()
	stale, ok := c.Stale("ds@1|k")
	same("stale copy", stale, ok, first)
	if _, _, err := c.DoCtxFn(context.Background(), "ds@1|k", compute); err != nil { // refill: a new entry, fresh and stale
		t.Fatal(err)
	}
	refilled, _ := c.Get("ds@1|k")
	second, _ := refilled.Data()
	c.Rekey(func(k string) string { return "ds@2|k" })
	moved, ok := c.Get("ds@2|k")
	same("migrated entry", moved, ok, second)
	movedStale, ok := c.Stale("ds@2|k")
	same("migrated stale copy", movedStale, ok, second)
	if got := atomic.LoadInt32(&n); got != 2 {
		t.Fatalf("encoded %d times, want 2 (the first flight and the refill)", got)
	}
	c.Rekey(func(string) string { return "" })
	if _, ok := c.Stale("ds@2|k"); ok {
		t.Fatal("dropped entry still stale-served")
	}
}
