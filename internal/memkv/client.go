package memkv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned by Get when the key is absent, and by Delete
// when there was nothing to delete.
var ErrNotFound = errors.New("memkv: not found")

// DefaultMaxIdleConns is the idle-connection cap of a v1 Client's pool:
// connections returning to a full pool are closed instead of retained,
// so a burst of concurrent requests no longer pins its high-water mark
// of sockets forever. In-flight connections are not bounded — the v1
// protocol needs one per concurrent request, which is exactly the
// scaling wall MuxClient removes.
const DefaultMaxIdleConns = 64

// Client is a connection-pooled memcached text-protocol client for a
// single server. It is safe for concurrent use; concurrent requests use
// separate pooled connections. It speaks only the unversioned v1
// protocol, so it does not implement Backend and cannot join a
// ShardedClient; MuxClient is the sharded stack's shard client.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	idle []*clientConn
}

type clientConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// NewClient creates a client for the server at addr. timeout bounds each
// request's network operations (0 means no timeout).
func NewClient(addr string, timeout time.Duration) *Client {
	return &Client{addr: addr, timeout: timeout}
}

// Addr returns the server address this client targets.
func (c *Client) Addr() string { return c.addr }

func (c *Client) getConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{c: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

func (c *Client) putConn(cc *clientConn) {
	c.mu.Lock()
	if len(c.idle) >= DefaultMaxIdleConns {
		c.mu.Unlock()
		cc.c.Close()
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// Close closes all idle pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	var err error
	for _, cc := range idle {
		if e := cc.c.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// deadline applies the per-request timeout and any context deadline.
func (c *Client) deadline(ctx context.Context, cc *clientConn) {
	d := time.Time{}
	if c.timeout > 0 {
		d = time.Now().Add(c.timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	cc.c.SetDeadline(d)
}

// aLongTimeAgo is a deadline in the distant past: setting it makes any
// blocked connection read or write return immediately.
var aLongTimeAgo = time.Unix(1, 0)

// roundTrip runs fn with a pooled connection, discarding the connection on
// error (it may hold unconsumed protocol state). Cancelling ctx mid-request
// yanks the connection deadline so a blocked read returns immediately —
// when the redundancy engine cancels a losing copy, the copy stops
// reading and releases its server instead of waiting out the response.
func (c *Client) roundTrip(ctx context.Context, fn func(cc *clientConn) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cc, err := c.getConn(ctx)
	if err != nil {
		return err
	}
	c.deadline(ctx, cc)
	stop := context.AfterFunc(ctx, func() { cc.c.SetDeadline(aLongTimeAgo) })
	err = fn(cc)
	stop()
	if err != nil {
		cc.c.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The request was cancelled, not refused: report the
			// cancellation, whatever transport error the yanked deadline
			// surfaced as.
			return ctxErr
		}
		// Sentinel errors pass through; transport errors are wrapped.
		return err
	}
	if ctx.Err() != nil {
		// ctx fired between fn returning and stop(): the connection's
		// deadline may be poisoned, so don't pool it.
		cc.c.Close()
	} else {
		c.putConn(cc)
	}
	return nil
}

// Set stores value under key with no expiry.
func (c *Client) Set(ctx context.Context, key string, value []byte) error {
	return c.SetTTL(ctx, key, value, 0)
}

// SetTTL stores value under key, expiring after ttl (rounded up to whole
// seconds, as the memcached protocol carries expiry in seconds; 0 = never).
func (c *Client) SetTTL(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	if err := validateKey(key); err != nil {
		return err
	}
	secs := int64(0)
	if ttl > 0 {
		secs = int64((ttl + time.Second - 1) / time.Second)
	}
	return c.roundTrip(ctx, func(cc *clientConn) error {
		fmt.Fprintf(cc.w, "set %s 0 %d %d\r\n", key, secs, len(value))
		cc.w.Write(value)
		cc.w.WriteString("\r\n")
		if err := cc.w.Flush(); err != nil {
			return err
		}
		line, err := readLine(cc.r)
		if err != nil {
			return err
		}
		if line != "STORED" {
			return fmt.Errorf("memkv: set failed: %q", line)
		}
		return nil
	})
}

// Get fetches the value stored under key.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	if err := validateKey(key); err != nil {
		return nil, err
	}
	var out []byte
	found := false
	err := c.roundTrip(ctx, func(cc *clientConn) error {
		fmt.Fprintf(cc.w, "get %s\r\n", key)
		if err := cc.w.Flush(); err != nil {
			return err
		}
		for {
			line, err := readLine(cc.r)
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			if !strings.HasPrefix(line, "VALUE ") {
				return fmt.Errorf("memkv: unexpected response %q", line)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("memkv: malformed VALUE line %q", line)
			}
			n, err := strconv.Atoi(fields[3])
			if err != nil || n < 0 || n > maxValueLen {
				return fmt.Errorf("memkv: bad value length in %q", line)
			}
			buf := make([]byte, n+2)
			if _, err := readFull(cc.r, buf); err != nil {
				return err
			}
			out = buf[:n]
			found = true
		}
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	return out, nil
}

// Delete removes key.
func (c *Client) Delete(ctx context.Context, key string) error {
	if err := validateKey(key); err != nil {
		return err
	}
	var status string
	err := c.roundTrip(ctx, func(cc *clientConn) error {
		fmt.Fprintf(cc.w, "delete %s\r\n", key)
		if err := cc.w.Flush(); err != nil {
			return err
		}
		line, err := readLine(cc.r)
		if err != nil {
			return err
		}
		status = line
		return nil
	})
	if err != nil {
		return err
	}
	switch status {
	case "DELETED":
		return nil
	case "NOT_FOUND":
		return ErrNotFound
	default:
		return fmt.Errorf("memkv: delete failed: %q", status)
	}
}

// Stats fetches the server's protocol counters.
func (c *Client) Stats(ctx context.Context) (map[string]int64, error) {
	out := make(map[string]int64)
	err := c.roundTrip(ctx, func(cc *clientConn) error {
		fmt.Fprintf(cc.w, "stats\r\n")
		if err := cc.w.Flush(); err != nil {
			return err
		}
		for {
			line, err := readLine(cc.r)
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			fields := strings.Fields(line)
			if len(fields) != 3 || fields[0] != "STAT" {
				return fmt.Errorf("memkv: malformed stats line %q", line)
			}
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return fmt.Errorf("memkv: bad stat value in %q", line)
			}
			out[fields[1]] = v
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func validateKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("memkv: invalid key length %d", len(key))
	}
	if strings.ContainsAny(key, " \r\n\t") {
		return errors.New("memkv: key contains whitespace")
	}
	return nil
}
