package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"testing"
)

// FuzzExplainRequest hardens the decoders of the POST /explain and
// /batch bodies, which read whatever a client sends: malformed input
// must be refused with a 400 or a 413 — never a panic, and never an
// allocation out of proportion to the input. An accepted body's request
// re-encodes to a body that decodes to the same request.
func FuzzExplainRequest(f *testing.F) {
	for _, seed := range []string{
		`{"start":"brad_pitt","end":"angelina_jolie"}`,
		`{"start":"a","end":"b","budget_ms":5,"budget_expansions":100,"trace":true,"sql":true}`,
		`{"pairs":[{"start":"a","end":"b"},{"start":"c","end":"d"}],"budget_expansions":1,"sql":true}`,
		`{"pairs":[{"start":"q\"\\ <&>  ","end":"é"}],"trace":true}`,
		`{"pairs":[]}`,
		`{"start":"a","end":"b","budget_ms":-1}`,
		`{"pairs":[{"start":"a"}],"budget_expansions":-2}`,
		`{"START":"a","Sql":true}`,
		`{"start":"a","end":"b"} trailing`,
		`{"pairs":[{"start":"a","end":"b"}`,
		`{"budget_ms":1e3}`,
		`null`,
		``,
		"{\"start\":\"\xff\"}",
	} {
		f.Add([]byte(seed))
	}
	const maxBatch = 1024
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ereq, estatus, eerr := decodeExplainBody(bytes.NewReader(in))
		breq, bstatus, berr := decodeBatchBody(bytes.NewReader(in), maxBatch)
		runtime.ReadMemStats(&after)
		// The worst body is a batch of empty pairs: three bytes of input
		// ("{}," ) for 32 bytes of slice, which grows by a quarter at a
		// time at that size — about 55 bytes allocated per input byte,
		// plus each decoder's buffer (66 in all at 200 000 pairs).
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(in)+1<<16); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(in), got, limit)
		}
		checkDecoded(t, "/explain", in, ereq, estatus, eerr, func(b []byte) (any, int, error) {
			return decodeExplainBody(bytes.NewReader(b))
		})
		checkDecoded(t, "/batch", in, breq, bstatus, berr, func(b []byte) (any, int, error) {
			return decodeBatchBody(bytes.NewReader(b), maxBatch)
		})
	})
}

// checkDecoded holds one decoder's answer to its contract: a refusal is
// a 400 or a 413, and an accepted request encodes to a body that the
// decoder accepts as the same request.
func checkDecoded(t *testing.T, endpoint string, in []byte, req any, status int, err error, decode func([]byte) (any, int, error)) {
	t.Helper()
	if err != nil {
		if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s refused %q with status %d (%v)", endpoint, in, status, err)
		}
		return
	}
	if status != http.StatusOK {
		t.Fatalf("%s accepted %q with status %d", endpoint, in, status)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%s: accepted request %+v does not encode: %v", endpoint, req, err)
	}
	back, status, err := decode(body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("%s: re-encoded body %s refused (%d, %v)", endpoint, body, status, err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("%s: %q decodes to %+v, re-encoded as %s to %+v", endpoint, in, req, body, back)
	}
}
