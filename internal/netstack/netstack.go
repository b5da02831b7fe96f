// Package netstack implements the "net" OS service of M³v (paper §4.4): a
// standalone UDP/IP stack (the smoltcp substitute) integrated with the AXI
// Ethernet driver into a single software component, pinned to the tile that
// has the NIC attached. Clients get POSIX-like sockets and exchange data and
// events with net over per-socket communication channels.
package netstack

import (
	"encoding/binary"
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/nic"
	"m3v/internal/noc"
	"m3v/internal/proto"
)

// ServiceName is the registered service name.
const ServiceName = "net"

// Protocol opcodes (local to the net request gate).
const (
	opInit proto.Op = iota + 1
	opSend
)

// Cost model in net-tile core cycles.
const (
	costProtoTx  = 1500 // UDP/IP encapsulation + checksum
	costProtoRx  = 1700 // parsing + demux
	costDriverTx = 900  // AXI DMA descriptor setup
	costDriverRx = 1100 // interrupt handling + DMA completion
	costPerByte  = 4    // bytes per cycle on the DMA path
)

// MaxPayload is the supported datagram payload.
const MaxPayload = 1024

// session is one socket's server-side state.
type session struct {
	client uint32
	inEp   dtu.EpID // net's send gate towards the client's inbound rgate
	bound  bool
}

// Config parameterizes the net service.
type Config struct {
	Dev   *nic.Device
	Ready *bool
}

// externalWaiter is the optional Exec capability for device interrupts.
type externalWaiter interface {
	TakeExternal() bool
}

// Program returns the net service program.
func Program(cfg Config) activity.Program {
	return func(a *activity.Activity) {
		rgSel, err := a.SysCreateRGate(16, MaxPayload+64)
		if err != nil {
			panic(fmt.Sprintf("net: rgate: %v", err))
		}
		rgEp, err := a.SysActivate(rgSel)
		if err != nil {
			panic(fmt.Sprintf("net: activate: %v", err))
		}
		if err := a.SysCreateSrv(ServiceName, rgSel); err != nil {
			panic(fmt.Sprintf("net: register: %v", err))
		}
		if cfg.Ready != nil {
			*cfg.Ready = true
		}
		sessions := make(map[uint64]*session)
		ext, _ := a.X.(externalWaiter)
		for {
			progress := false
			// Receive path: NIC frames to client channels.
			if frame, ok := cfg.Dev.Poll(); ok {
				progress = true
				a.Compute(costDriverRx + costProtoRx + int64(len(frame))/costPerByte)
				if len(frame) >= 8 {
					sess := sessions[binary.LittleEndian.Uint64(frame)]
					if sess != nil && sess.bound {
						payload := frame[8:]
						// UDP semantics: if the client's inbound channel is
						// saturated, the datagram is dropped rather than
						// blocking the stack.
						if err := a.SendBounded(sess.inEp, payload, 0, -1, 0, 16); err != nil {
							_ = err
						}
					}
				}
			}
			// Request path: client messages.
			if slot, msg, ok := a.TryRecv(rgEp); ok {
				progress = true
				resp := handleReq(a, cfg.Dev, sessions, &msg)
				if resp != nil {
					if err := a.ReplyMsg(rgEp, slot, msg, resp, 0); err != nil {
						panic(fmt.Sprintf("net: reply: %v", err))
					}
				} else {
					a.AckMsg(rgEp, slot)
				}
			}
			if progress {
				continue
			}
			if ext != nil && ext.TakeExternal() {
				continue // NIC interrupt: poll again
			}
			a.X.WaitForMsg()
			if ext != nil {
				ext.TakeExternal()
			}
		}
	}
}

// handleReq processes one client request; a nil response means "ack only"
// (one-way messages).
func handleReq(a *activity.Activity, dev *nic.Device, sessions map[uint64]*session, msg *dtu.Message) []byte {
	op, r, err := proto.ParseOp(msg.Data)
	if err != nil {
		return proto.Resp(proto.EInvalid)
	}
	switch op {
	case opInit:
		client := r.U32()
		inSel := cap.Sel(r.U32())
		if r.Err() != nil {
			return proto.Resp(proto.EInvalid)
		}
		ep, err := a.SysActivate(inSel)
		if err != nil {
			return proto.Resp(proto.ENoSuchCap)
		}
		sessions[msg.Label] = &session{client: client, inEp: ep, bound: true}
		return proto.Resp(proto.EOK)
	case opSend:
		data := r.BytesField()
		if r.Err() != nil || len(data) > MaxPayload {
			return proto.Resp(proto.EInvalid)
		}
		sess := sessions[msg.Label]
		if sess == nil {
			return proto.Resp(proto.EInvalid)
		}
		a.Compute(costProtoTx + costDriverTx + int64(len(data))/costPerByte)
		frame := make([]byte, 8+len(data))
		binary.LittleEndian.PutUint64(frame, msg.Label)
		copy(frame[8:], data)
		dev.Transmit(frame)
		return nil // one-way: ack only
	default:
		return proto.Resp(proto.EInvalid)
	}
}

// Spawn starts the net service on the NIC tile and waits for registration.
func Spawn(parent *activity.Activity, tileSel cap.Sel, tile noc.TileID, dev *nic.Device) (activity.ChildRef, error) {
	ready := false
	ref, err := parent.Spawn(tileSel, tile, "net", nil, Program(Config{Dev: dev, Ready: &ready}))
	if err != nil {
		return activity.ChildRef{}, err
	}
	for !ready {
		parent.Compute(1000)
		parent.Yield()
	}
	return ref, nil
}

// Socket is the client side of one UDP socket.
type Socket struct {
	a    *activity.Activity
	sgEp dtu.EpID // to net
	rgEp dtu.EpID // replies from net (init)
	inEp dtu.EpID // inbound datagrams
}

// Dial opens a socket: a session with net plus the per-socket inbound
// channel (paper §4.4: "uses a per-socket communication channel to exchange
// data and events with clients").
func Dial(a *activity.Activity, netAct uint32) (*Socket, error) {
	sess, err := a.SysOpenSess(ServiceName)
	if err != nil {
		return nil, fmt.Errorf("net dial: %w", err)
	}
	sgEp, err := a.SysActivate(sess.SGateSel)
	if err != nil {
		return nil, err
	}
	rgSel, err := a.SysCreateRGate(1, 64)
	if err != nil {
		return nil, err
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		return nil, err
	}
	// Inbound channel: our receive gate, a send gate for it, delegated to
	// the service.
	inRgSel, err := a.SysCreateRGate(8, MaxPayload+32)
	if err != nil {
		return nil, err
	}
	inEp, err := a.SysActivate(inRgSel)
	if err != nil {
		return nil, err
	}
	inSgSel, err := a.SysCreateSGate(inRgSel, 0, 4)
	if err != nil {
		return nil, err
	}
	delegated, err := a.SysDelegate(netAct, inSgSel)
	if err != nil {
		return nil, err
	}
	s := &Socket{a: a, sgEp: sgEp, rgEp: rgEp, inEp: inEp}
	req := proto.NewWriter(opInit).U32(a.ID).U32(uint32(delegated)).Done()
	resp, err := a.Call(sgEp, rgEp, req)
	if err != nil {
		return nil, err
	}
	if code, _, err := proto.ParseResp(resp); err != nil || code != proto.EOK {
		return nil, fmt.Errorf("net init rejected: %v/%v", code, err)
	}
	return s, nil
}

// Send transmits a datagram (one-way, fire and forget like UDP).
func (s *Socket) Send(data []byte) error {
	req := proto.NewWriter(opSend).Bytes(data).Done()
	return s.a.Send(s.sgEp, req, 0, -1, 0)
}

// Recv blocks until a datagram arrives.
func (s *Socket) Recv() []byte {
	slot, msg := s.a.Recv(s.inEp)
	data := msg.Data
	s.a.AckMsg(s.inEp, slot)
	return data
}

// TryRecv returns a datagram if one is pending.
func (s *Socket) TryRecv() ([]byte, bool) {
	slot, msg, ok := s.a.TryRecv(s.inEp)
	if !ok {
		return nil, false
	}
	data := msg.Data
	s.a.AckMsg(s.inEp, slot)
	return data, true
}
