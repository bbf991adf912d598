//! Wire-codec robustness: every framed protocol message round-trips
//! bit-exactly, and no torn, oversized, truncated, or garbage input can
//! make the frame layer panic — it must error cleanly.

use ba_baselines::{BoMsg, FloodMsg, PkMsg, RbMsg};
use ba_core::ae_to_e::AeMsg;
use ba_core::aeba::VoteMsg;
use ba_core::everywhere::StackMsg;
use ba_core::tournament::TourMsg;
use ba_net::NetConfig;
use ba_obs::Trace;
use ba_serve::frame::{Frame, FrameError, FrameReader, FrameWriter, OutcomeWire, MAX_FRAME};
use ba_serve::{SocketTransport, WireCounters};
use ba_sim::{Multicast, ProcId, Transport, WireError, WireMsg};
use proptest::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Round-trips `msg` through its wire encoding and through a full
/// `Send` data frame, checking payload bytes and the bits annotation.
fn msg_round_trip<M: WireMsg + PartialEq + std::fmt::Debug>(msg: M) {
    let bytes = msg.to_wire();
    let back = M::from_wire(&bytes).expect("payload decodes");
    assert_eq!(back, msg);

    let frame = Frame::Send {
        round: 5,
        from: 1,
        to: 2,
        bits: msg.bit_len(),
        payload: bytes.clone(),
    };
    let framed = frame.to_bytes();
    let mut reader = FrameReader::new(framed.as_slice());
    let got = reader.read_frame().expect("frame decodes");
    let Frame::Send { bits, payload, .. } = &got else {
        panic!("wrong frame variant: {got:?}");
    };
    assert_eq!(*bits, msg.bit_len());
    assert_eq!(M::from_wire(payload).expect("framed payload decodes"), msg);
}

/// Round-trips `msg` fanned to `to` through both fan frames: the
/// recipient list comes back in order, the payload once, and `bits`
/// stays the per-recipient cost.
fn fan_round_trip<M: WireMsg + PartialEq + std::fmt::Debug>(msg: M, to: &[u32]) {
    let (round, from, bits) = (5, 1, msg.bit_len());
    let (to, payload) = (to.to_vec(), msg.to_wire());
    let frames = [
        Frame::SendMany {
            round,
            from,
            bits,
            to: to.clone(),
            payload: payload.clone(),
        },
        Frame::DeliverMany {
            round,
            from,
            bits,
            to,
            payload,
        },
    ];
    for frame in &frames {
        let framed = frame.to_bytes();
        let mut reader = FrameReader::new(framed.as_slice());
        let got = reader.read_frame().expect("fan frame decodes");
        assert_eq!(&got, frame);
        assert_eq!(reader.bytes, framed.len() as u64);
        let (Frame::SendMany { payload, .. } | Frame::DeliverMany { payload, .. }) = &got else {
            panic!("wrong frame variant: {got:?}");
        };
        assert_eq!(M::from_wire(payload).expect("fanned payload decodes"), msg);
    }
}

fn opt_bool(sel: u8) -> Option<bool> {
    match sel % 3 {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

proptest! {
    #[test]
    fn tour_msg_round_trips(sel in 0u8..3, a in any::<u32>(), b in any::<u32>(),
                            c in any::<u32>(), d in any::<u16>()) {
        let msg = match sel {
            0 => TourMsg::Expose { level: a, node: b, cand: c, bin: d },
            1 => TourMsg::WinnerShare { level: a, node: b, array: c, words: u32::from(d) },
            _ => TourMsg::RootCoin { j: a },
        };
        msg_round_trip(msg);
    }

    #[test]
    fn ae_msg_round_trips(sel in 0u8..2, label in any::<u16>(), value in any::<u64>()) {
        let msg = match sel {
            0 => AeMsg::Request { label },
            _ => AeMsg::Response { label, value },
        };
        msg_round_trip(msg);
    }

    #[test]
    fn stack_msg_round_trips(sel in 0u8..2, a in any::<u32>(), b in any::<u16>()) {
        let msg = match sel {
            0 => StackMsg::Tour(TourMsg::Expose { level: a, node: a, cand: a, bin: b }),
            _ => StackMsg::Ae(AeMsg::Response { label: b, value: u64::from(a) }),
        };
        msg_round_trip(msg);
    }

    #[test]
    fn scalar_msgs_round_trip(v in any::<bool>(), sel in any::<u8>()) {
        msg_round_trip(VoteMsg(v));
        msg_round_trip(FloodMsg(v));
        msg_round_trip(if sel.is_multiple_of(2) { PkMsg::Vote(v) } else { PkMsg::King(v) });
        msg_round_trip(if sel.is_multiple_of(2) {
            BoMsg::Report(v)
        } else {
            BoMsg::Propose(opt_bool(sel / 2))
        });
        msg_round_trip(if sel.is_multiple_of(2) {
            RbMsg::Report(v)
        } else {
            RbMsg::Propose(opt_bool(sel / 2))
        });
    }

    /// `SendMany` / `DeliverMany` round-trip over every protocol message
    /// type, from the empty fan to one of 300 recipients.
    #[test]
    fn fan_frames_round_trip(to in proptest::collection::vec(any::<u32>(), 0..301),
                             a in any::<u32>(), b in any::<u16>(), v in any::<bool>(),
                             sel in any::<u8>()) {
        fan_round_trip(TourMsg::Expose { level: a, node: a / 2, cand: a / 3, bin: b }, &to);
        fan_round_trip(TourMsg::WinnerShare { level: a, node: 1, array: 2, words: u32::from(b) }, &to);
        fan_round_trip(TourMsg::RootCoin { j: a }, &to);
        fan_round_trip(AeMsg::Request { label: b }, &to);
        fan_round_trip(AeMsg::Response { label: b, value: u64::from(a) << 7 }, &to);
        fan_round_trip(StackMsg::Tour(TourMsg::RootCoin { j: a }), &to);
        fan_round_trip(StackMsg::Ae(AeMsg::Request { label: b }), &to);
        fan_round_trip(VoteMsg(v), &to);
        fan_round_trip(FloodMsg(v), &to);
        fan_round_trip(if v { PkMsg::Vote(v) } else { PkMsg::King(v) }, &to);
        fan_round_trip(if v { BoMsg::Report(v) } else { BoMsg::Propose(opt_bool(sel)) }, &to);
        fan_round_trip(if v { RbMsg::Report(v) } else { RbMsg::Propose(opt_bool(sel)) }, &to);
    }

    /// A torn fan errors cleanly at both layers: every strict prefix of
    /// the framed bytes reads `Truncated`, and every prefix of the body
    /// too short to hold the `count` recipients it announces decodes to
    /// `Malformed` (a longer one is a valid fan with a shorter payload:
    /// the payload is the remainder). Never a panic.
    #[test]
    fn torn_fans_error_cleanly(to in proptest::collection::vec(any::<u32>(), 0..40),
                               payload in proptest::collection::vec(any::<u8>(), 0..24)) {
        let recipients = to.len();
        let frame = Frame::SendMany { round: 3, from: 7, bits: 16, to, payload };
        let full = frame.to_bytes();
        for cut in 1..full.len() {
            let mut reader = FrameReader::new(&full[..cut]);
            prop_assert!(
                matches!(reader.read_frame(), Err(FrameError::Truncated)),
                "prefix {cut}/{} must be Truncated", full.len()
            );
        }
        let body = &full[4..];
        let header = 1 + 4 + 4 + 8 + 4 + 4 * recipients;
        for cut in 0..body.len() {
            match Frame::decode(&body[..cut]) {
                Err(FrameError::Malformed(WireError::Truncated)) => prop_assert!(cut < header),
                Ok(Frame::SendMany { to, .. }) => {
                    prop_assert!(cut >= header);
                    prop_assert_eq!(to.len(), recipients);
                }
                other => prop_assert!(false, "body prefix {cut} decoded to {other:?}"),
            }
        }
    }

    /// Every strict prefix of a valid frame reads as `Truncated` (the
    /// stream ended mid-frame), never a panic and never silent success.
    #[test]
    fn torn_frames_error_cleanly(trial in any::<u64>(), round in any::<u32>(),
                                 payload in proptest::collection::vec(any::<u8>(), 0..24)) {
        let frames = [
            Frame::Open { trial, spec: "name = x\nprotocol = flood\nn = 8".to_owned() },
            Frame::Send { round, from: 0, to: 1, bits: 16, payload: payload.clone() },
            Frame::Deliver { round, from: 1, to: 0, bits: 16, payload },
            Frame::Collect { round },
            Frame::RoundDone { round },
            Frame::Busy { retry_after_ms: round },
            Frame::Shutdown,
        ];
        for frame in &frames {
            let full = frame.to_bytes();
            for cut in 1..full.len() {
                let mut reader = FrameReader::new(&full[..cut]);
                prop_assert!(
                    matches!(reader.read_frame(), Err(FrameError::Truncated)),
                    "prefix {cut}/{} of {frame:?} must be Truncated", full.len()
                );
            }
        }
    }

    /// Arbitrary garbage never panics the reader: it decodes to a valid
    /// frame or errors, and an oversized length prefix is rejected.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut reader = FrameReader::new(bytes.as_slice());
        loop {
            match reader.read_frame() {
                Ok(_) => {}
                Err(FrameError::Closed) => break,
                Err(_) => break,
            }
        }
    }

    /// Outcome frames round-trip exactly, floats included (IEEE bit
    /// patterns on the wire).
    #[test]
    fn outcome_round_trips(seed in any::<u64>(), rounds in any::<u64>(),
                           bits in any::<u64>(), frac in 0u32..1001,
                           sel in any::<u8>()) {
        let ow = OutcomeWire {
            seed,
            agreement: f64::from(frac) / 1000.0,
            decided: f64::from(frac) / 500.0,
            rounds,
            total_bits: bits,
            decided_bit: opt_bool(sel),
            valid: opt_bool(sel / 3),
            corrupt: u64::from(frac),
            wire_frames: rounds,
            wire_bytes: bits,
        };
        let framed = Frame::Outcome(ow.clone()).to_bytes();
        let mut reader = FrameReader::new(framed.as_slice());
        prop_assert_eq!(reader.read_frame().expect("decodes"), Frame::Outcome(ow));
    }
}

/// A length prefix above the cap is rejected before the body is read —
/// and the reader does not attempt the huge allocation.
#[test]
fn oversized_frame_rejected() {
    for len in [MAX_FRAME + 1, u32::MAX] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut reader = FrameReader::new(bytes.as_slice());
        assert!(matches!(
            reader.read_frame(),
            Err(FrameError::Oversized { len: l }) if l == len
        ));
    }
}

/// Clean EOF between frames reads as `Closed`, EOF inside the next
/// frame as `Truncated` — the distinction the server and client use to
/// tell a finished peer from a broken one.
#[test]
fn mid_stream_eof_is_distinguished() {
    let a = Frame::Collect { round: 1 }.to_bytes();
    let b = Frame::RoundDone { round: 1 }.to_bytes();

    // Full frame then clean close.
    let mut stream = a.clone();
    let mut reader = FrameReader::new(stream.as_slice());
    assert!(reader.read_frame().is_ok());
    assert!(matches!(reader.read_frame(), Err(FrameError::Closed)));

    // Full frame then a torn second frame.
    stream = a;
    stream.extend_from_slice(&b[..b.len() - 1]);
    let mut reader = FrameReader::new(stream.as_slice());
    assert!(reader.read_frame().is_ok());
    assert!(matches!(reader.read_frame(), Err(FrameError::Truncated)));
}

/// Malformed payload bytes inside a well-formed frame error at the
/// message layer without disturbing the frame layer.
#[test]
fn malformed_payload_is_a_message_error_not_a_frame_error() {
    let frame = Frame::Send {
        round: 0,
        from: 0,
        to: 1,
        bits: 16,
        payload: vec![0xEE, 0x01, 0x02], // bad tag for every protocol enum
    };
    let framed = frame.to_bytes();
    let mut reader = FrameReader::new(framed.as_slice());
    let Frame::Send { payload, .. } = reader.read_frame().expect("frame layer accepts") else {
        panic!("variant changed");
    };
    assert!(TourMsg::from_wire(&payload).is_err());
    assert!(StackMsg::from_wire(&payload).is_err());
    assert!(AeMsg::from_wire(&payload).is_err());
    assert!(PkMsg::from_wire(&payload).is_err());
}

/// A fan's `count` is checked against the bytes that are there before
/// anything is sized by it: a hostile 4-byte count in a 30-byte body is
/// `Malformed`, not a 16 GB reservation (`tests/serve_memory.rs` at the
/// workspace root pins that the rejection allocates nothing at all).
#[test]
fn hostile_fan_count_is_rejected_before_it_is_reserved() {
    for tag in [9u8, 10] {
        for count in [u32::MAX, 1 << 30, 3] {
            let mut body = vec![tag];
            body.extend_from_slice(&1u32.to_le_bytes()); // round
            body.extend_from_slice(&2u32.to_le_bytes()); // from
            body.extend_from_slice(&16u64.to_le_bytes()); // bits
            body.extend_from_slice(&count.to_le_bytes());
            body.resize(30, 0xAB); // room for two recipients, not `count`
            assert!(
                matches!(
                    Frame::decode(&body),
                    Err(FrameError::Malformed(WireError::Truncated))
                ),
                "tag {tag}, count {count}"
            );
        }
    }
}

/// A fan too long for one frame leaves as consecutive fan frames cut at
/// a fixed recipient count — so frame boundaries depend on the call
/// alone — and comes back as the same recipients in the same order,
/// counted per recipient on both sides.
#[test]
fn oversized_fan_splits_into_fan_frames_and_round_trips() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    // The switch side, by hand: record what arrives up to the `Collect`,
    // echo every fan as its `DeliverMany`, close the round.
    let switch = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
        let mut writer = FrameWriter::new(std::io::BufWriter::new(stream));
        let mut fans = Vec::new();
        loop {
            match reader.read_frame().expect("frame from the transport") {
                Frame::SendMany {
                    round,
                    from,
                    bits,
                    to,
                    payload,
                } => {
                    assert_eq!(
                        (round, from, bits, payload.as_slice()),
                        (4, 9, 8, &[0x5A][..])
                    );
                    let echo = Frame::DeliverMany {
                        round,
                        from,
                        bits,
                        to: to.clone(),
                        payload,
                    };
                    writer.write_frame(&echo).expect("echo");
                    fans.push(to);
                }
                Frame::Collect { round } => {
                    writer
                        .write_frame(&Frame::RoundDone { round })
                        .and_then(|()| writer.flush())
                        .expect("round done");
                    return fans;
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    });
    let (stream, _) = listener.accept().expect("accept");
    let counters = Arc::new(WireCounters::default());
    let mut transport: SocketTransport<u8> =
        SocketTransport::new(stream, NetConfig::default(), Trace::off(), counters)
            .expect("synchronous config");
    let to: Arc<[ProcId]> = (0..300_000)
        .map(|i| ProcId::new((i * 7) % 100_003))
        .collect();
    transport.send_many(
        4,
        Multicast {
            from: ProcId::new(9),
            to: Arc::clone(&to),
            payload: 0x5Au8,
        },
    );
    let mut back = Vec::new();
    transport.collect_many(5, &mut |mc| {
        assert_eq!((mc.from, mc.payload), (ProcId::new(9), 0x5A));
        back.push(mc.to);
    });
    let fans = switch.join().expect("switch thread");

    assert!(fans.len() > 1, "300 000 recipients do not fit one frame");
    let cap = fans[0].len();
    assert!(
        fans[..fans.len() - 1].iter().all(|f| f.len() == cap),
        "every frame but the last holds the same fixed count"
    );
    assert_eq!(
        4 * cap,
        MAX_FRAME as usize / 2,
        "recipient ids take half a frame, the rest is the payload's"
    );
    let sent: Vec<u32> = fans.concat();
    assert_eq!(
        sent,
        to.iter().map(|p| p.index() as u32).collect::<Vec<_>>()
    );
    assert_eq!(back.len(), fans.len(), "one batch per fan frame");
    assert_eq!(back.concat(), to.to_vec());

    use ba_exp::SessionTransport;
    let stats = transport.finish().into_stats();
    assert_eq!((stats.sent, stats.delivered), (300_000, 300_000));
}
