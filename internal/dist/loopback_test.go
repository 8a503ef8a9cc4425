package dist

import (
	"net/http"
	"net/http/httptest"
)

// Loopback is an in-process http.RoundTripper that serves every request
// from a handler, bypassing sockets entirely. The tests use it to stand up
// a "cluster" of workers inside one process, and the dispatch benchmark
// uses it to measure pure coordination overhead (placement, hedging
// machinery, breaker accounting) without network noise.
//
// Cancellation is honoured: if the request context ends before the handler
// returns, RoundTrip reports the context error — exactly what a hedged or
// rerouted dispatch needs to abandon a slow attempt.
type Loopback struct {
	// Handler serves every request. Route by req.URL.Host inside the
	// handler to emulate multiple distinct workers.
	Handler http.Handler
}

// RoundTrip implements http.RoundTripper.
func (l Loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	done := make(chan *http.Response, 1)
	go func() {
		rec := httptest.NewRecorder()
		l.Handler.ServeHTTP(rec, req)
		resp := rec.Result()
		resp.Request = req
		done <- resp
	}()
	select {
	case resp := <-done:
		return resp, nil
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
}
