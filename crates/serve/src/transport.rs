//! [`SocketTransport`]: the harness [`Transport`] seam carried over a
//! real TCP stream, and the [`TransportFactory`] that builds it.
//!
//! The daemon hosts the executor; the client side is a *dumb synchronous
//! switch* (see `client`): it buffers every data frame it receives and,
//! on [`Frame::Collect`]`{round}`, returns each buffered frame whose
//! sending round precedes `round`, in the order sent. Because TCP
//! preserves order and the engine drives rounds in lockstep, this
//! reproduces the in-process `NetTransport` delivery semantics for
//! synchronous configurations *exactly* — same envelopes, same order,
//! same rounds — so a served trial's outcome is identical, per seed, to
//! the in-process run of the same spec.
//!
//! The wire is paid per *call*, as the in-process transports are: one
//! [`Transport::send`] is one [`Frame::Send`], one
//! [`Transport::send_many`] is one [`Frame::SendMany`] however long its
//! recipient list (cut only at the fixed `FAN_CAP`), and nothing else
//! decides where a frame ends — so a session's frames and bytes repeat
//! exactly per seed. All accounting still counts per recipient, in the
//! [`PhaseLedger`] `NetTransport` counts in too. Data frames are encoded
//! into, and read from, buffers the transport reuses: an envelope costs
//! no heap allocation on either path.
//!
//! That guarantee is why [`SocketFactory::make`] rejects any
//! [`NetConfig`] that is not [`NetConfig::is_synchronous`]: latency,
//! drops, partitions, and adversarial reordering consume transport
//! randomness and scheduling decisions that live server-side in the
//! simulated carrier; faithfully distributing them is out of scope for
//! the service.
//!
//! I/O errors inside a session panic rather than return: the engine's
//! [`Transport`] seam has no error channel, and the server contains
//! per-session panics (crash isolation) and reports them to the client
//! as [`Frame::Error`].

use crate::frame::{self, DataRef, Frame, FrameReader, FrameWriter};
use ba_exp::{SessionTransport, TransportFactory};
use ba_net::{NetConfig, PhaseLedger};
use ba_obs::Trace;
use ba_sim::{Envelope, Multicast, ProcId, Transport, WireMsg};
use std::io::{BufReader, BufWriter};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Socket byte/frame totals for one session, shared between the
/// transport (which owns the stream while the trial runs) and the
/// session driver (which reports them after the trial ends).
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Bytes read off the socket (data frames).
    pub bytes_in: AtomicU64,
    /// Bytes written to the socket (data frames).
    pub bytes_out: AtomicU64,
    /// Frames read off the socket.
    pub frames_in: AtomicU64,
    /// Frames written to the socket.
    pub frames_out: AtomicU64,
}

impl WireCounters {
    /// Total bytes in both directions.
    pub fn bytes(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed) + self.bytes_out.load(Ordering::Relaxed)
    }

    /// Total frames in both directions.
    pub fn frames(&self) -> u64 {
        self.frames_in.load(Ordering::Relaxed) + self.frames_out.load(Ordering::Relaxed)
    }
}

/// Capacity of the buffers between the frame codec and the socket, on
/// both ends of a session: a round's burst of small frames leaves in a
/// handful of writes.
pub(crate) const SOCKET_BUF: usize = 64 * 1024;

/// A [`Transport`] that carries envelopes over a TCP stream to a
/// buffering peer, restricted to synchronous configurations (see the
/// module docs for why the restriction makes outcomes carrier-exact).
pub struct SocketTransport<M> {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: FrameWriter<BufWriter<TcpStream>>,
    /// The frame being read; reused.
    inbound: Vec<u8>,
    /// The last delivered fan's recipient list. Every sender of a
    /// committee fans to the same list, so the next fan's recipient
    /// bytes usually spell this one again and it is shared, not rebuilt
    /// — which also keeps the `Arc::ptr_eq` memos downstream (the
    /// tournament's winner receipts) as effective as they are in
    /// process.
    last_fan: Arc<[ProcId]>,
    /// Every counter, per phase of the sending round.
    ledger: PhaseLedger,
    trace: Trace,
    counters: Arc<WireCounters>,
    _msg: PhantomData<fn() -> M>,
}

impl<M: WireMsg> SocketTransport<M> {
    /// Wraps `stream`. Fails if `cfg` is not synchronous.
    pub fn new(
        stream: TcpStream,
        cfg: NetConfig,
        trace: Trace,
        counters: Arc<WireCounters>,
    ) -> Result<Self, String> {
        if !cfg.is_synchronous() {
            return Err(
                "ba-serve sessions require a synchronous NetConfig (zero latency, \
                 no faults, FIFO delivery); perturbed configs run in-process only"
                    .to_owned(),
            );
        }
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning session stream: {e}"))?;
        Ok(SocketTransport {
            reader: FrameReader::new(BufReader::with_capacity(SOCKET_BUF, reader)),
            writer: FrameWriter::new(BufWriter::with_capacity(SOCKET_BUF, stream)),
            inbound: Vec::new(),
            last_fan: Arc::from([]),
            ledger: PhaseLedger::new(&cfg),
            trace,
            counters,
            _msg: PhantomData,
        })
    }
}

/// Who a delivered data frame is for.
enum Recipients<'a> {
    /// A `Deliver`'s one recipient.
    One(ProcId),
    /// A `DeliverMany`'s list, in frame order.
    Many(&'a Arc<[ProcId]>),
}

impl<M: WireMsg> SocketTransport<M> {
    /// Asks the switch for everything due at `round` and hands each data
    /// frame it answers with to `sink`, in frame order, having counted
    /// it per recipient. The shared body of [`Transport::collect`] and
    /// [`Transport::collect_many`].
    fn drain_round(&mut self, round: usize, sink: &mut dyn FnMut(ProcId, Recipients<'_>, M)) {
        self.writer
            .write_frame(&Frame::Collect {
                round: round as u32,
            })
            .and_then(|()| self.writer.flush())
            .unwrap_or_else(|e| panic!("serve session collect failed: {e}"));
        loop {
            self.inbound.clear();
            self.reader
                .read_raw(&mut self.inbound)
                .unwrap_or_else(|e| panic!("serve session read failed: {e}"));
            let body = &self.inbound[4..];
            let data = DataRef::parse(body)
                .unwrap_or_else(|e| panic!("serve session read failed: {e}"))
                .filter(|d| matches!(d.tag, frame::TAG_DELIVER | frame::TAG_DELIVER_MANY));
            let Some(data) = data else {
                match Frame::decode(body) {
                    Ok(Frame::RoundDone { round: done }) => {
                        assert_eq!(
                            done, round as u32,
                            "switch answered collect({round}) with round-done({done})"
                        );
                        return;
                    }
                    other => panic!("unexpected frame during collect: {other:?}"),
                }
            };
            let msg = M::from_wire(data.payload)
                .unwrap_or_else(|e| panic!("serve session payload malformed: {e}"));
            let (from, sent_round) = (ProcId::new(data.from as usize), data.round as usize);
            let (count, one) = {
                let mut ids = data.recipients().map(|id| ProcId::new(id as usize));
                let count = ids.len() as u64;
                if data.tag == frame::TAG_DELIVER {
                    (count, ids.next())
                } else {
                    if !ids.clone().eq(self.last_fan.iter().copied()) {
                        self.last_fan = ids.collect();
                    }
                    (count, None)
                }
            };
            self.ledger.delivered(round, sent_round, count, 0);
            let to = one.map_or(Recipients::Many(&self.last_fan), Recipients::One);
            sink(from, to, msg);
        }
    }
}

impl<M: WireMsg> Transport<M> for SocketTransport<M> {
    fn send(&mut self, round: usize, env: Envelope<M>) {
        let bits = env.bit_len();
        self.ledger.sent(round, 1, bits);
        let (from, to) = (env.from.index() as u32, env.to.index() as u32);
        self.writer
            .write_with(|out| {
                frame::encode_single(out, frame::TAG_SEND, round as u32, from, to, bits, |out| {
                    env.payload.encode(out)
                })
            })
            .unwrap_or_else(|e| panic!("serve session send failed: {e}"));
    }

    /// One frame per fan (per `FAN_CAP` recipients of a longer one),
    /// counted per recipient exactly as its expansion would be.
    fn send_many(&mut self, round: usize, mc: Multicast<M>) {
        let (bits, count) = (mc.payload.bit_len(), mc.to.len() as u64);
        self.ledger.sent(round, count, count * bits);
        let from = mc.from.index() as u32;
        for to in mc.to.chunks(frame::FAN_CAP) {
            let to = to.iter().map(|p| p.index() as u32);
            self.writer
                .write_with(|out| {
                    frame::encode_fan(
                        out,
                        frame::TAG_SEND_MANY,
                        round as u32,
                        from,
                        bits,
                        to,
                        |out| mc.payload.encode(out),
                    )
                })
                .unwrap_or_else(|e| panic!("serve session send failed: {e}"));
        }
    }

    /// A fan expands per recipient in list order, as `Lockstep::collect`
    /// expands one.
    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        self.drain_round(round, &mut |from, to, msg| match to {
            Recipients::One(to) => deliver(Envelope::new(from, to, msg)),
            Recipients::Many(list) => {
                for &to in list.iter() {
                    deliver(Envelope::new(from, to, msg.clone()));
                }
            }
        });
    }

    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<M>)) {
        self.drain_round(round, &mut |from, to, payload| {
            let to = match to {
                Recipients::One(to) => Arc::from([to].as_slice()),
                Recipients::Many(list) => Arc::clone(list),
            };
            deliver(Multicast { from, to, payload });
        });
    }

    fn mark_phase(&mut self, round: usize, name: &str) {
        if self.ledger.mark(round, name) {
            self.trace.event("net:phase", round as u64, name, &[]);
        }
    }
}

impl<M: WireMsg> SessionTransport<M> for SocketTransport<M> {
    fn finish(mut self) -> PhaseLedger {
        let _ = self.writer.flush();
        let c = &self.counters;
        c.bytes_in.store(self.reader.bytes, Ordering::Relaxed);
        c.bytes_out.store(self.writer.bytes, Ordering::Relaxed);
        c.frames_in.store(self.reader.frames, Ordering::Relaxed);
        c.frames_out.store(self.writer.frames, Ordering::Relaxed);
        self.ledger
    }
}

/// A [`TransportFactory`] wrapping one accepted session stream. Each
/// factory serves exactly one trial: `make` consumes the stream.
pub struct SocketFactory {
    stream: Option<TcpStream>,
    counters: Arc<WireCounters>,
}

impl SocketFactory {
    /// Wraps the session's stream.
    pub fn new(stream: TcpStream) -> Self {
        SocketFactory {
            stream: Some(stream),
            counters: Arc::new(WireCounters::default()),
        }
    }

    /// Handle to the session's wire counters, valid after the trial.
    pub fn counters(&self) -> Arc<WireCounters> {
        Arc::clone(&self.counters)
    }
}

impl TransportFactory for SocketFactory {
    type Transport<M: WireMsg + 'static> = SocketTransport<M>;

    fn make<M: WireMsg + 'static>(
        &mut self,
        _n: usize,
        cfg: NetConfig,
        trace: &Trace,
    ) -> Result<SocketTransport<M>, String> {
        let stream = self
            .stream
            .take()
            .ok_or("a ba-serve session carries exactly one trial")?;
        SocketTransport::new(stream, cfg, trace.clone(), Arc::clone(&self.counters))
    }
}
