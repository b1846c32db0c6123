package serving

import (
	"encoding/json"
	"net/http"
)

// WriteJSON writes v as indented JSON with the right content type. If v
// does not encode, the status goes out with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// EncodeData encodes v as a member value of an envelope written by
// WriteJSON: json.Marshal's escaping, indented one level deep, with no
// leading indent and no trailing newline. These are exactly the bytes
// WriteJSON emits after `"data": ` when it encodes {"data": v, ...}.
func EncodeData(v interface{}) ([]byte, error) {
	return json.MarshalIndent(v, "  ", "  ")
}

// The fixed parts of an envelope around its two member values.
var (
	envelopeHead = []byte("{\n  \"data\": ")
	envelopeMeta = []byte(",\n  \"meta\": ")
	envelopeTail = []byte("\n}\n")
)

// WriteEnvelope writes {"data": e.Val, "meta": meta} byte for byte as
// WriteJSON would write a struct with those two fields, but takes the
// data member from e.Data, so a cached result is encoded once for all
// the requests that read it; only meta, which differs per request, is
// encoded here. As with WriteJSON, a member that does not encode leaves
// the body empty.
func WriteEnvelope(w http.ResponseWriter, status int, e Entry, meta interface{}) {
	data, err := e.Data()
	var m []byte
	if err == nil {
		m, err = EncodeData(meta)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err != nil {
		return
	}
	// Written in parts, not joined: the data member can be large, and
	// the response writer buffers small writes anyway.
	for _, part := range [][]byte{envelopeHead, data, envelopeMeta, m, envelopeTail} {
		_, _ = w.Write(part)
	}
}
