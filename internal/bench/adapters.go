package bench

import (
	"fmt"
	"io"

	"m3v/internal/activity"
	"m3v/internal/kvs"
	"m3v/internal/linuxos"
	"m3v/internal/m3fs"
)

// --- traces.Target adapters ---------------------------------------------------

// m3fsTarget replays traces against an m3fs client.
type m3fsTarget struct {
	a   *activity.Activity
	c   *m3fs.Client
	f   *m3fs.File
	buf []byte
}

func newM3FSTarget(a *activity.Activity, c *m3fs.Client) *m3fsTarget {
	return &m3fsTarget{a: a, c: c, buf: make([]byte, 8192)}
}

func (t *m3fsTarget) Open(path string) error {
	f, err := t.c.Open(path, m3fs.FlagR|m3fs.FlagW)
	if err != nil {
		return err
	}
	t.f = f
	return nil
}

func (t *m3fsTarget) Create(path string) error {
	f, err := t.c.Open(path, m3fs.FlagR|m3fs.FlagW|m3fs.FlagCreate|m3fs.FlagTrunc)
	if err != nil {
		return err
	}
	t.f = f
	return nil
}

func (t *m3fsTarget) Read(size int) error {
	if t.f == nil {
		return fmt.Errorf("no open file")
	}
	_, err := t.f.Read(t.buf[:size])
	if err == io.EOF {
		return nil
	}
	return err
}

func (t *m3fsTarget) Write(size int) error {
	if t.f == nil {
		return fmt.Errorf("no open file")
	}
	_, err := t.f.Write(t.buf[:size])
	return err
}

func (t *m3fsTarget) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

func (t *m3fsTarget) Stat(path string) error {
	_, _, err := t.c.Stat(path)
	return err
}

func (t *m3fsTarget) ReadDir(path string) error {
	_, err := t.c.ReadDir(path)
	return err
}

func (t *m3fsTarget) Unlink(path string) error { return t.c.Unlink(path) }
func (t *m3fsTarget) Mkdir(path string) error  { return t.c.Mkdir(path) }
func (t *m3fsTarget) Compute(cycles int64)     { t.a.Compute(cycles) }

// --- kvs.FileSys adapters ------------------------------------------------------

// m3fsKV adapts an m3fs client to the key-value store's FileSys.
type m3fsKV struct {
	c *m3fs.Client
}

func (m *m3fsKV) Create(name string) (kvs.WFile, error) {
	f, err := m.c.Open(name, m3fs.FlagW|m3fs.FlagCreate|m3fs.FlagTrunc)
	if err != nil {
		return nil, err
	}
	return &m3fsW{f: f}, nil
}

func (m *m3fsKV) Open(name string) (kvs.RFile, error) {
	f, err := m.c.Open(name, m3fs.FlagR)
	if err != nil {
		return nil, err
	}
	return &m3fsR{f: f}, nil
}

func (m *m3fsKV) Unlink(name string) error { return m.c.Unlink(name) }

type m3fsW struct{ f *m3fs.File }

func (w *m3fsW) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w *m3fsW) Close() error                { return w.f.Close() }

type m3fsR struct{ f *m3fs.File }

func (r *m3fsR) ReadAll() ([]byte, error) { return r.f.ReadAll(8192) }
func (r *m3fsR) Close() error             { return r.f.Close() }

// linuxKV adapts the Linux model's tmpfs to the key-value store.
type linuxKV struct {
	p *linuxos.Proc
}

func (l *linuxKV) Create(name string) (kvs.WFile, error) {
	return &linuxW{p: l.p, fd: l.p.Create(name)}, nil
}

func (l *linuxKV) Open(name string) (kvs.RFile, error) {
	fd := l.p.Open(name)
	if fd < 0 {
		return nil, fmt.Errorf("linux open %s failed", name)
	}
	return &linuxR{p: l.p, fd: fd}, nil
}

func (l *linuxKV) Unlink(name string) error { l.p.Unlink(name); return nil }

type linuxW struct {
	p  *linuxos.Proc
	fd int
}

func (w *linuxW) Write(p []byte) (int, error) { return w.p.Write(w.fd, p) }
func (w *linuxW) Close() error                { w.p.Close(w.fd); return nil }

type linuxR struct {
	p  *linuxos.Proc
	fd int
}

func (r *linuxR) ReadAll() ([]byte, error) {
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := r.p.Read(r.fd, buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}
func (r *linuxR) Close() error { r.p.Close(r.fd); return nil }
