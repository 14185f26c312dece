package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAttemptAttributesByHeader: the router learns the generation of a
// 200 from the X-Rex-Generation header and from nowhere else. A fake
// replica leads the chain and answers with a real replica's generation-2
// body; whether the router forwards it or moves on to the real replica
// depends on the header and the HTTP framing alone.
func TestAttemptAttributesByHeader(t *testing.T) {
	real := bootReplica(t, "rex-real")
	if _, err := real.store.Apply(strings.NewReader(uniqueDelta(1))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(real.hs.URL + "/explain?start=a&end=b")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Header.Get(generationHeader) != "2" || !bytes.Contains(body, []byte(`"generation":2,`)) {
		t.Fatalf("fixture: err %v, %s %q, body %s", err, generationHeader, resp.Header.Get(generationHeader), body)
	}

	whole := func(header string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			if header != "" {
				w.Header().Set(generationHeader, header)
			}
			w.Write(body) //nolint:errcheck
		}
	}
	// cut announces the whole body, sends half of it and drops the
	// connection: what a replica dying mid-response looks like.
	cut := func(w http.ResponseWriter) {
		w.Header().Set(generationHeader, "2")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)/2]) //nolint:errcheck
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.Flush() //nolint:errcheck
		conn.Close()
	}

	for _, tc := range []struct {
		name      string
		answer    func(http.ResponseWriter)
		forwarded bool // the fake's answer reaches the client
		stale     bool // rejected as below the floor: counted, fake marked lagging
	}{
		{"header at the floor", whole("2"), true, false},
		{"no header", whole(""), false, false},
		{"header not a number", whole("two"), false, false},
		{"header zero", whole("0"), false, false},
		{"body cut short of its Content-Length", cut, false, false},
		{"header below the floor", whole("1"), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int32
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				switch r.URL.Path {
				case "/healthz":
					w.Write([]byte(`{"status":"ok","generation":2}`)) //nolint:errcheck
				case "/explain":
					hits.Add(1)
					tc.answer(w)
				default:
					w.WriteHeader(http.StatusNotFound)
				}
			}))
			defer fake.Close()
			rt, err := New(Config{
				Replicas:       []ReplicaConfig{{Name: "rex-real", URL: real.hs.URL}, {Name: "rex-fake", URL: fake.URL}},
				HealthInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rt.sweep()
			rt.genFloor.lift(2)
			realRp, fakeRp := rt.replicas[0], rt.replicas[1]

			res, err := rt.trySequence(context.Background(), []*replica{fakeRp, realRp},
				http.MethodGet, "/explain", "start=a&end=b", nil, "attribution-test")
			if err != nil {
				t.Fatal(err)
			}
			if hits.Load() != 1 {
				t.Fatalf("fake replica was asked %d times, want 1", hits.Load())
			}
			want := realRp
			if tc.forwarded {
				want = fakeRp
			}
			if res.replica != want {
				t.Fatalf("answer taken from %s, want %s", res.replica.name, want.name)
			}
			if res.status != http.StatusOK || res.generation != 2 {
				t.Fatalf("status %d at generation %d, want 200 at 2", res.status, res.generation)
			}
			if tc.forwarded && !bytes.Equal(res.body, body) {
				t.Errorf("buffered body differs from what the fake sent:\n%s", res.body)
			}
			if got := metricSum(t, rt, "rex_router_generation_rejects_total"); (got == 1) != tc.stale || got > 1 {
				t.Errorf("generation rejects = %v, stale = %v", got, tc.stale)
			}
			if fakeRp.lagging.Load() != tc.stale {
				t.Errorf("fake marked lagging = %v, want %v", fakeRp.lagging.Load(), tc.stale)
			}

			// What the client gets: the replica's bytes, their length, and
			// the generation where it need not parse them to find it.
			rec := httptest.NewRecorder()
			forward(rec, "attribution-test", res)
			if !bytes.Equal(rec.Body.Bytes(), res.body) {
				t.Errorf("forwarded body differs from the replica's:\n%s", rec.Body)
			}
			if got := rec.Header().Get(generationHeader); got != "2" {
				t.Errorf("client %s = %q, want 2", generationHeader, got)
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(res.body)) {
				t.Errorf("client Content-Length = %q, want %d", got, len(res.body))
			}
		})
	}
}
