package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hcperf/internal/service"
)

// span is one timed interval.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps the spans a traced run records around the server's public
// entry points in memory: the handler span of each request, keyed by the
// client's request ID, and the execute span of each run, keyed by request
// digest. They are read when the phase ends.
type spanLog struct {
	mu      sync.Mutex
	handler map[int64]span
	execute map[string]span
}

func newSpanLog() *spanLog {
	return &spanLog{handler: make(map[int64]span), execute: make(map[string]span)}
}

// wrapHandler times Server.Handler for every request carrying spanHeader.
func (l *spanLog) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if id != 0 {
			l.mu.Lock()
			l.handler[id] = span{start, end}
			l.mu.Unlock()
		}
	})
}

// wrapRun times the execute stage, delegating to next.
func (l *spanLog) wrapRun(next service.RunFunc) service.RunFunc {
	return func(ctx context.Context, req service.RunRequest) (*service.RunResult, error) {
		start := time.Now()
		res, err := next(ctx, req)
		end := time.Now()
		id := req.Digest()
		l.mu.Lock()
		l.execute[id] = span{start, end}
		l.mu.Unlock()
		return res, err
	}
}

func (l *spanLog) handlerSpan(id int64) (span, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.handler[id]
	return s, ok
}

func (l *spanLog) executeSpan(digest string) (span, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.execute[digest]
	return s, ok
}
