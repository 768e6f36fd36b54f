package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sssj/internal/apss"
	"sssj/internal/stream"
)

// cmdBatch reads a "BATCH <n>" frame — the header's count is rest — and
// submits its n item lines to the session pipeline as one request. It
// reports whether the connection must close: a bad or over-cap count, an
// over-long line, or a frame past MaxBatchBytes leaves the rest of the
// frame on the wire, so the framing is lost.
func (s *session) cmdBatch(r *bufio.Reader, w *bufio.Writer, rest string, side apss.Side) (quit bool) {
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		fmt.Fprintf(w, "ERR bad BATCH count %q, want 1..%d\n", rest, MaxBatchItems)
		return true
	}
	if n > MaxBatchItems {
		fmt.Fprintf(w, "ERR %v: BATCH count %d exceeds %d\n", ErrTooLarge, n, MaxBatchItems)
		return true
	}
	// Each line is parsed as it arrives, so the frame's text is never
	// held whole; after a parse error the remaining lines are still read
	// (and dropped) to keep the connection line-aligned.
	items := make([]ingestReq, 0, n)
	addEmit, putEmit := matchEmitter(w, false), matchEmitter(w, true)
	var perr error
	size := 0
	for i := 0; i < n; i++ {
		line, err := readLine(r)
		if size += len(line); size > MaxBatchBytes {
			err = fmt.Errorf("%w: BATCH lines exceed %d bytes", ErrTooLarge, MaxBatchBytes)
		}
		if err != nil && !(err == io.EOF && line != "" && i == n-1) {
			if errors.Is(err, ErrTooLarge) {
				fmt.Fprintf(w, "ERR %v\n", err)
			}
			return true
		}
		if perr != nil {
			continue
		}
		verb, args, _ := strings.Cut(strings.TrimSpace(line), " ")
		req, err := s.parseItem(strings.ToUpper(verb), args, side)
		if err != nil {
			perr = fmt.Errorf("line %d: %v", i+1, err)
			continue
		}
		req.emit = addEmit
		if req.explicitID {
			req.emit = putEmit
		}
		items = append(items, req)
	}
	if perr != nil {
		fmt.Fprintf(w, "ERR BATCH 0 %v\n", perr)
		return false
	}
	resp := s.submit(ingestReq{kind: ingestBatch, batch: items}, false)
	switch {
	case resp.busy || resp.moved != "":
		writeRespErr(w, s, resp)
	case resp.err != nil:
		fmt.Fprintf(w, "ERR BATCH %d %v\n", resp.n, resp.err)
	default:
		fmt.Fprintf(w, "BATCHED %d %d\n", resp.n, resp.id)
	}
	return false
}

// serveBatch ingests a batch's items in order on the pipeline goroutine,
// stopping at the first one the session rejects. Each item is timed
// into the ingest histogram on its own, as if it had come alone.
func (s *session) serveBatch(items []ingestReq) ingestResp {
	var first uint64
	for k, it := range items {
		resp := s.observeAdd(it)
		if resp.err != nil {
			return ingestResp{id: first, n: k, err: resp.err}
		}
		if k == 0 {
			first = resp.id
		}
	}
	return ingestResp{id: first, n: len(items)}
}

// BatchError is the typed decode of "ERR BATCH <k> <message>": the batch
// stopped at its item Ingested, which the session rejected with
// Message. Items before it were ingested, exactly as that many
// sequential Adds would have left them; it and the rest were not.
type BatchError struct {
	// Ingested is how many leading items of the batch were ingested.
	Ingested int
	// Message is the server's reason for rejecting the next item.
	Message string
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("batch stopped after %d items: %s", e.Ingested, e.Message)
}

// AddBatch submits items as one BATCH frame of ADD lines and returns the
// first item's stream ID (the rest follow consecutively) and the
// matches of every item, in item order. Each item's Time and Vec are
// sent; its ID and Side are not — the items go on the connection's
// current side (see Side).
//
// The whole frame is written before the reply is read, which cannot
// deadlock: the server reads the full frame before it writes anything.
// Refusals are atomic — a *BusyError or *MovedError means no item was
// ingested — while a *BatchError reports how many leading items were
// ingested before the session rejected one. A batch over MaxBatchItems,
// MaxBatchBytes or MaxLineBytes fails with ErrTooLarge before anything
// is sent.
func (c *Client) AddBatch(items []stream.Item) (uint64, []apss.Match, error) {
	if len(items) == 0 {
		return 0, nil, nil
	}
	if len(items) > MaxBatchItems {
		return 0, nil, fmt.Errorf("%w: %d items exceed %d", ErrTooLarge, len(items), MaxBatchItems)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf[:0], "BATCH "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(items)), 10)
	c.buf = append(c.buf, '\n')
	head := len(c.buf)
	for _, it := range items {
		start := len(c.buf)
		c.buf = appendAdd(c.buf, it.Time, it.Vec)
		if len(c.buf)-start > MaxLineBytes {
			return 0, nil, fmt.Errorf("%w: an item line exceeds %d bytes", ErrTooLarge, MaxLineBytes)
		}
	}
	if len(c.buf)-head > MaxBatchBytes {
		return 0, nil, fmt.Errorf("%w: batch lines exceed %d bytes", ErrTooLarge, MaxBatchBytes)
	}
	c.beginRequest()
	if _, err := c.conn.Write(c.buf); err != nil {
		return 0, nil, err
	}
	var matches []apss.Match
	for {
		resp, err := c.readLine()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case strings.HasPrefix(resp, "MATCH "):
			m, err := parseMatchLine(resp)
			if err != nil {
				return 0, nil, err
			}
			matches = append(matches, m)
		case strings.HasPrefix(resp, "BATCHED "):
			var n int
			var first uint64
			if _, err := fmt.Sscanf(resp, "BATCHED %d %d", &n, &first); err != nil || n != len(items) {
				return 0, nil, fmt.Errorf("server: bad batch reply %q for %d items", resp, len(items))
			}
			return first, matches, nil
		case strings.HasPrefix(resp, "ERR BATCH "):
			k, msg, _ := strings.Cut(resp[len("ERR BATCH "):], " ")
			n, err := strconv.Atoi(k)
			if err != nil || n < 0 || n >= len(items) {
				return 0, nil, fmt.Errorf("server: bad batch reply %q for %d items", resp, len(items))
			}
			return 0, matches, &BatchError{Ingested: n, Message: msg}
		default:
			if err := respError(resp); err != nil {
				return 0, nil, err
			}
			return 0, nil, fmt.Errorf("server: unexpected response %q", resp)
		}
	}
}
