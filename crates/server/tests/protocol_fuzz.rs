//! Protocol fuzz/property suite: malformed frames must yield typed
//! protocol errors and must never panic a server thread or poison
//! another session.
//!
//! Two attack surfaces, two harnesses:
//!
//! * **payload level** (well-formed framing, garbage inside): driven
//!   over the in-process pipe with an owned session thread, so "the
//!   session did not panic" is a literal `JoinHandle::join` assertion;
//! * **framing level** (truncated length prefixes, oversized claims,
//!   mid-frame disconnects): driven over real TCP with raw
//!   `TcpStream` writes, because the typed client cannot even express
//!   these — followed every time by a fresh well-behaved client
//!   proving the server still serves.

use proptest::prelude::*;
use sinr_core::{Network, StationId, SurgeryOp};
use sinr_geometry::Point;
use sinr_server::{
    decode_response, duplex, duplex_stream, encode_request, serve_session, BackendId, ChaosConfig,
    ChaosStream, Client, ClientError, ErrorCode, IoTransport, PipeStream, PipeTransport, Request,
    Response, Server,
};
use std::io::{Read, Write};
use std::net::TcpStream;

fn tiny_network() -> Network {
    Network::uniform(
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(1.0, 3.0),
        ],
        0.01,
        1.5,
    )
    .unwrap()
}

/// A session loop on its own thread over a pipe, with the join handle
/// kept so the test can assert the thread exited *without panicking*.
fn owned_session() -> (Client<PipeTransport>, std::thread::JoinHandle<()>) {
    let (client_end, server_end) = duplex();
    let handle = std::thread::spawn(move || serve_session(server_end));
    (Client::new(client_end), handle)
}

/// Reads one raw frame off a TCP stream (test-side framing).
fn read_frame_raw(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).ok()?;
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some(payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payload bytes through well-formed framing: every frame
    /// gets exactly one response (a typed error for undecodable ones,
    /// never a success out of thin air for a session that was never
    /// bound), and the session thread exits cleanly afterwards.
    #[test]
    fn arbitrary_payloads_never_panic_the_session(
        frames in collection::vec(collection::vec(any::<u8>(), 0..256), 1..8)
    ) {
        let (mut client, handle) = owned_session();
        for payload in &frames {
            client.send_raw(payload).expect("framing layer is well-formed");
            match client.recv() {
                // Typed server-side rejection: the expected outcome.
                Err(ClientError::Server { .. }) => {}
                // A payload that happens to decode as a valid request
                // on an unbound session would still be a Server error
                // (NotBound); a random valid *Bind* is the only success
                // path and needs ≥ 2 finite valid stations — allowed,
                // but then it must really be a Bound response.
                Ok(Response::Bound { .. }) => {}
                Ok(other) => prop_assert!(false, "garbage produced {other:?}"),
                Err(other) => prop_assert!(false, "session died: {other}"),
            }
        }
        // The session survives the whole spray and still serves.
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }

    /// A malformed payload must not disturb an already-bound session:
    /// the binding, the revision, and subsequent answers are intact.
    #[test]
    fn malformed_frames_do_not_poison_the_bound_state(
        garbage in collection::vec(any::<u8>(), 1..128)
    ) {
        let (mut client, handle) = owned_session();
        let net = tiny_network();
        let revision = client
            .bind_network(BackendId::ExactScan, 0.0, &net)
            .expect("bind");

        // Force the payload to be undecodable regardless of what the
        // generator drew: 0x7F is no known tag.
        let mut payload = vec![0x7F];
        payload.extend(&garbage);
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::MalformedFrame)
            }
            other => prop_assert!(false, "expected MalformedFrame, got {other:?}"),
        }

        let (rev, answers) = client
            .locate_batch(&[Point::new(0.5, 0.0)])
            .expect("session still bound and serving");
        prop_assert_eq!(rev, revision);
        prop_assert_eq!(answers.len(), 1);
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }

    /// Unknown backend bytes in `Bind` yield the dedicated typed code,
    /// and the session remains usable for a correct `Bind` afterwards.
    #[test]
    fn bad_backend_ids_yield_unknown_backend(bad in 4u8..255) {
        let (mut client, handle) = owned_session();
        client.send_raw(&[0x01, bad]).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::UnknownBackend)
            }
            other => prop_assert!(false, "expected UnknownBackend, got {other:?}"),
        }
        let net = tiny_network();
        prop_assert_eq!(
            client.bind_network(BackendId::ExactScan, 0.0, &net).expect("bind after error"),
            0
        );
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }

    /// Mutations fenced at any wrong revision (the "delta with a
    /// foreign revision" case) are rejected whole, with the typed code,
    /// leaving the session serving at the unmoved revision.
    #[test]
    fn foreign_revision_mutates_are_fenced(wrong in 1u64..u64::MAX) {
        let (mut client, handle) = owned_session();
        let net = tiny_network();
        let revision = client
            .bind_network(BackendId::VoronoiAssisted, 0.0, &net)
            .expect("bind");
        prop_assert_eq!(revision, 0);
        let op = SurgeryOp::Move { id: StationId(0), to: Point::new(1.0, 1.0) };
        match client.mutate(wrong, &[op]) {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::RevisionMismatch)
            }
            other => prop_assert!(false, "expected RevisionMismatch, got {other:?}"),
        }
        let (rev, _) = client.locate_batch(&[Point::new(0.0, 1.0)]).expect("serving");
        prop_assert_eq!(rev, revision, "nothing may have been applied");
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }

    /// `Mutate` frames whose op bytes are truncated mid-op are rejected
    /// as malformed without touching the bound network.
    #[test]
    fn truncated_mutate_ops_are_malformed_not_applied(cut in 1usize..20) {
        let (mut client, handle) = owned_session();
        let net = tiny_network();
        client.bind_network(BackendId::ExactScan, 0.0, &net).expect("bind");

        // A well-formed Mutate payload, then cut `cut` bytes off the end.
        let mut payload = vec![0x04];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        for op in [
            SurgeryOp::Move { id: StationId(0), to: Point::new(2.0, 2.0) },
            SurgeryOp::Add { position: Point::new(-1.0, 2.0), power: 1.0 },
        ] {
            op.encode_into(&mut payload);
        }
        let cut = cut.min(payload.len() - 14); // keep tag + header intact
        payload.truncate(payload.len() - cut);
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::MalformedFrame)
            }
            other => prop_assert!(false, "expected MalformedFrame, got {other:?}"),
        }
        // Revision 0 still: nothing was applied.
        let (rev, _) = client.locate_batch(&[Point::new(0.5, 0.5)]).expect("serving");
        prop_assert_eq!(rev, 0);
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }
}

proptest! {
    // TCP cases open real sockets; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Truncated length prefixes / mid-frame disconnects over real TCP:
    /// the server closes that connection quietly and keeps accepting —
    /// proven by a well-behaved client immediately afterwards.
    #[test]
    fn truncated_prefixes_close_quietly_and_server_keeps_serving(
        partial in collection::vec(any::<u8>(), 0..7)
    ) {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr();

        {
            let mut raw = TcpStream::connect(addr).expect("connect raw");
            // 0–6 bytes: either a truncated prefix, or a full prefix
            // promising more payload than ever arrives.
            raw.write_all(&partial).expect("write partial");
            raw.shutdown(std::net::Shutdown::Write).ok();
            // Whatever happens, the server must not hang this read
            // forever: it either closes silently (truncation) or (full
            // prefix + missing payload ≡ truncation) closes too.
            let mut sink = Vec::new();
            let _ = raw.take(1024).read_to_end(&mut sink);
        }

        let mut client = Client::connect(addr).expect("connect after abuse");
        let net = tiny_network();
        client.bind_network(BackendId::SimdScan, 0.0, &net).expect("bind");
        let (_, answers) = client.locate_batch(&[Point::new(0.2, 0.1)]).expect("serving");
        prop_assert_eq!(answers.len(), 1);
        drop(client);
        handle.shutdown();
    }

    /// A length prefix past MAX_FRAME_LEN gets the typed `Oversized`
    /// error and then the connection closes (the stream position is
    /// unrecoverable after a lying prefix).
    #[test]
    fn oversized_prefixes_get_typed_error_then_close(
        over in (16u32 * 1024 * 1024 + 1)..u32::MAX
    ) {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let handle = server.spawn().expect("spawn");

        let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
        raw.write_all(&over.to_le_bytes()).expect("write prefix");
        let payload = read_frame_raw(&mut raw).expect("server answers before closing");
        match decode_response(&payload).expect("decodable error frame") {
            Response::Error { code, .. } => prop_assert_eq!(code, ErrorCode::Oversized),
            other => prop_assert!(false, "expected Oversized error, got {other:?}"),
        }
        // …and then EOF.
        let mut rest = Vec::new();
        let _ = raw.take(64).read_to_end(&mut rest);
        prop_assert!(rest.is_empty(), "connection must close after Oversized");
        handle.shutdown();
    }
}

/// Deterministic corner: an empty payload (length 0) is a legal frame
/// whose payload fails to decode — typed MalformedFrame, session lives.
#[test]
fn empty_frame_is_malformed_not_fatal() {
    let (mut client, handle) = owned_session();
    client.send_raw(&[]).expect("send empty frame");
    match client.recv() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::MalformedFrame);
            assert!(message.contains("empty"), "message: {message}");
        }
        other => panic!("expected MalformedFrame, got {other:?}"),
    }
    let net = tiny_network();
    client
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("bind after empty frame");
    drop(client);
    assert!(handle.join().is_ok());
}

/// Deterministic corner: double Bind is AlreadyBound and leaves the
/// first binding untouched.
#[test]
fn double_bind_is_typed_and_harmless() {
    let (mut client, handle) = owned_session();
    let net = tiny_network();
    let revision = client
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("first bind");
    match client.bind_network(BackendId::SimdScan, 0.0, &net) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AlreadyBound),
        other => panic!("expected AlreadyBound, got {other:?}"),
    }
    let (rev, _) = client
        .locate_batch(&[Point::new(0.0, 0.0)])
        .expect("original binding serves");
    assert_eq!(rev, revision);
    drop(client);
    assert!(handle.join().is_ok());
}

/// Deterministic corner: queries before Bind are NotBound; a SinrBatch
/// for a station the network lacks is StationOutOfRange.
#[test]
fn not_bound_and_station_range_are_typed() {
    let (mut client, handle) = owned_session();
    match client.locate_batch(&[Point::new(0.0, 0.0)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotBound),
        other => panic!("expected NotBound, got {other:?}"),
    }
    let net = tiny_network();
    client
        .bind_network(BackendId::VoronoiAssisted, 0.0, &net)
        .expect("bind");
    match client.sinr_batch(StationId(99), &[Point::new(0.0, 0.0)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::StationOutOfRange),
        other => panic!("expected StationOutOfRange, got {other:?}"),
    }
    drop(client);
    assert!(handle.join().is_ok());
}

/// Deterministic corner: a Bind whose network fails model validation
/// (too few stations) is InvalidNetwork and the session stays usable.
#[test]
fn invalid_network_bind_is_typed() {
    let (mut client, handle) = owned_session();
    // Handcraft a Bind with a single station: tag, backend, epsilon,
    // noise, beta, alpha, n = 1, one station record.
    let mut payload = vec![0x01, 0u8];
    for v in [0.0f64, 0.0, 1.0, 2.0] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(&1u32.to_le_bytes());
    for v in [0.0f64, 0.0, 1.0] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    client.send_raw(&payload).expect("send");
    match client.recv() {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::InvalidNetwork);
            assert!(message.contains("at least 2"), "message: {message}");
        }
        other => panic!("expected InvalidNetwork, got {other:?}"),
    }
    let net = tiny_network();
    client
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("bind after invalid network");
    drop(client);
    assert!(handle.join().is_ok());
}

/// Deterministic corners for malformed `ReceptionProbBatch` channel
/// specs: unknown atom tags, truncated parameters, lying gain counts
/// and nested composition are all MalformedFrame at the decode layer —
/// the session survives each and keeps serving.
#[test]
fn malformed_channel_specs_are_malformed_frames_not_fatal() {
    let (mut client, handle) = owned_session();
    let net = tiny_network();
    let revision = client
        .bind_network(BackendId::ExactScan, 0.0, &net)
        .expect("bind");

    // Common ReceptionProbBatch header: tag, trials = 8, seed = 0.
    let header = || {
        let mut p = vec![0x05];
        p.extend_from_slice(&8u32.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        p
    };

    // Unknown channel atom tag.
    let mut unknown_atom = header();
    unknown_atom.push(200);
    // Truncated shadowing sigma (atom tag present, parameter cut short).
    let mut short_sigma = header();
    short_sigma.push(1);
    short_sigma.extend_from_slice(&[0u8, 0, 0]);
    // FixedGains declaring more gains than the frame carries.
    let mut lying_gains = header();
    lying_gains.push(3);
    lying_gains.extend_from_slice(&u32::MAX.to_le_bytes());
    // Composed nested inside Composed.
    let mut nested = header();
    nested.push(4);
    nested.push(1);
    nested.push(4);
    nested.push(0);
    nested.extend_from_slice(&0u32.to_le_bytes());
    // A valid channel but the frame ends before the point count.
    let mut no_points = header();
    no_points.push(0);

    for (what, payload) in [
        ("unknown atom tag", unknown_atom),
        ("truncated sigma", short_sigma),
        ("lying gain count", lying_gains),
        ("nested compose", nested),
        ("missing point count", no_points),
    ] {
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::MalformedFrame, "{what}")
            }
            other => panic!("{what}: expected MalformedFrame, got {other:?}"),
        }
        // The binding is intact after every malformed spec.
        let (rev, answers) = client
            .locate_batch(&[Point::new(0.5, 0.0)])
            .expect("session still serving");
        assert_eq!(rev, revision, "{what}");
        assert_eq!(answers.len(), 1, "{what}");
    }
    drop(client);
    assert!(handle.join().is_ok(), "session thread panicked");
}

/// Deterministic corner: a channel spec that *decodes* but fails the
/// engine's semantic validation (zero trials, wrong gain count, a
/// shadowing σ whose draws overflow) is the
/// per-request InvalidChannel error — not MalformedFrame, not fatal.
#[test]
fn decodable_but_invalid_channels_are_invalid_channel() {
    use sinr_core::ChannelModel;
    let (mut client, handle) = owned_session();
    let net = tiny_network();
    client
        .bind_network(BackendId::SimdScan, 0.0, &net)
        .expect("bind");

    // Zero trials: decodes fine, rejected by McConfig validation.
    match client.reception_prob_batch(0, 1, &ChannelModel::Deterministic, &[Point::new(0.5, 0.0)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidChannel),
        other => panic!("expected InvalidChannel, got {other:?}"),
    }
    // Wrong gain-vector length for the bound 3-station network.
    let bad_gains = ChannelModel::FixedGains {
        gains: vec![1.0, 2.0],
    };
    match client.reception_prob_batch(8, 1, &bad_gains, &[Point::new(0.5, 0.0)]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::InvalidChannel);
            assert!(message.contains("gain"), "message: {message}");
        }
        other => panic!("expected InvalidChannel, got {other:?}"),
    }
    // Shadowing whose largest draw overflows `f64` (σ above ~359.6 dB):
    // a finite σ that decodes, refused per request with code 15 rather
    // than answered with +∞ gains.
    let overflowing = ChannelModel::LogNormalShadowing { sigma_db: 4000.0 };
    match client.reception_prob_batch(8, 1, &overflowing, &[Point::new(0.5, 0.0)]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::InvalidChannel);
            assert_eq!(code.to_wire(), 15);
            assert!(message.contains("overflows"), "message: {message}");
        }
        other => panic!("expected InvalidChannel, got {other:?}"),
    }
    // The session survives and serves the corrected request.
    let (_, values) = client
        .reception_prob_batch(
            8,
            1,
            &ChannelModel::FixedGains {
                gains: vec![1.0, 2.0, 0.5],
            },
            &[Point::new(0.5, 0.0)],
        )
        .expect("session survives InvalidChannel");
    assert_eq!(values.len(), 1);
    drop(client);
    assert!(handle.join().is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The new tags (`Register` 0x06, `Attach` 0x07,
    /// `SinrQuantilesBatch` 0x08) under arbitrary body bytes: typed
    /// errors only, no panics, no phantom successes. (A random body
    /// that happens to decode as a valid `Register` is the one
    /// legitimate success path, mirroring the `Bind` caveat above.)
    #[test]
    fn arbitrary_named_frame_bodies_never_panic(
        tag in 6u8..9,
        body in collection::vec(any::<u8>(), 0..192)
    ) {
        let (mut client, handle) = owned_session();
        let mut payload = vec![tag];
        payload.extend(&body);
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { .. }) => {}
            Ok(Response::Registered { .. }) if tag == 6 => {}
            Ok(other) => prop_assert!(false, "garbage tag {tag} produced {other:?}"),
            Err(other) => prop_assert!(false, "session died: {other}"),
        }
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }

    /// Name-length bytes lying about the frame (claiming more bytes
    /// than arrive, or zero) are MalformedFrame for both named frames,
    /// and the session keeps serving.
    #[test]
    fn lying_name_lengths_are_malformed(claimed in 1u8..255, tag in 6u8..8) {
        let (mut client, handle) = owned_session();
        // Ship strictly fewer name bytes than the length byte claims.
        let shipped = (claimed as usize).saturating_sub(1);
        let mut payload = vec![tag, claimed];
        payload.extend(std::iter::repeat_n(b'x', shipped));
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::MalformedFrame)
            }
            other => prop_assert!(false, "expected MalformedFrame, got {other:?}"),
        }
        // Zero-length names are refused outright.
        let zero = vec![tag, 0u8];
        client.send_raw(&zero).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::MalformedFrame)
            }
            other => prop_assert!(false, "expected MalformedFrame, got {other:?}"),
        }
        let net = tiny_network();
        client.bind_network(BackendId::ExactScan, 0.0, &net).expect("still serving");
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }

    /// A well-formed `SinrQuantilesBatch` cut short anywhere in its
    /// body is MalformedFrame, and the binding survives untouched.
    #[test]
    fn truncated_quantiles_frames_are_malformed(cut in 1usize..40) {
        let (mut client, handle) = owned_session();
        let net = tiny_network();
        client.bind_network(BackendId::ExactScan, 0.0, &net).expect("bind");

        // tag, station, trials, seed, deterministic channel, 2
        // quantiles, 2 points.
        let mut payload = vec![0x08];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&8u32.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&2u32.to_le_bytes());
        for q in [0.25f64, 0.75] {
            payload.extend_from_slice(&q.to_le_bytes());
        }
        payload.extend_from_slice(&2u32.to_le_bytes());
        for v in [0.5f64, 0.0, 3.0, 0.5] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let cut = cut.min(payload.len() - 2); // keep at least the tag
        payload.truncate(payload.len() - cut);
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::MalformedFrame)
            }
            other => prop_assert!(false, "expected MalformedFrame, got {other:?}"),
        }
        let (rev, _) = client.locate_batch(&[Point::new(0.5, 0.0)]).expect("serving");
        prop_assert_eq!(rev, 0);
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }
}

/// Deterministic corner: non-UTF-8 name bytes are MalformedFrame for
/// both named frames; the session survives and the name stays free.
#[test]
fn non_utf8_names_are_malformed() {
    let (mut client, handle) = owned_session();
    for tag in [0x06u8, 0x07] {
        let mut payload = vec![tag, 3u8, 0xFF, 0xFE, 0xFD];
        if tag == 0x07 {
            payload.push(0); // backend
            payload.extend_from_slice(&0.0f64.to_le_bytes()); // epsilon
        }
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::MalformedFrame, "tag {tag:#04x}");
                assert!(message.contains("UTF-8"), "tag {tag:#04x}: {message}");
            }
            other => panic!("tag {tag:#04x}: expected MalformedFrame, got {other:?}"),
        }
    }
    let net = tiny_network();
    client
        .register_network("fine", &net)
        .expect("valid name still free");
    drop(client);
    assert!(handle.join().is_ok());
}

/// Deterministic corner: registry errors are per-request — NameTaken
/// on a duplicate Register, UnknownNetwork on a dangling Attach — and
/// the session survives both into a working Attach.
#[test]
fn registry_errors_are_typed_and_survivable() {
    let (mut client, handle) = owned_session();
    let net = tiny_network();
    match client.attach("nowhere", BackendId::ExactScan, 0.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownNetwork),
        other => panic!("expected UnknownNetwork, got {other:?}"),
    }
    client.register_network("here", &net).expect("register");
    match client.register_network("here", &net) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::NameTaken);
            assert!(message.contains("here"), "message: {message}");
        }
        other => panic!("expected NameTaken, got {other:?}"),
    }
    let rev = client
        .attach("here", BackendId::ExactScan, 0.0)
        .expect("attach after errors");
    assert_eq!(rev, 0);
    let (rev, answers) = client
        .locate_batch(&[Point::new(0.5, 0.0)])
        .expect("attached session serves");
    assert_eq!(rev, 0);
    assert_eq!(answers.len(), 1);
    drop(client);
    assert!(handle.join().is_ok());
}

/// Reads one raw frame off a [`PipeStream`] (test-side framing).
fn read_frame_pipe(stream: &mut PipeStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("response prefix");
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut payload).expect("response payload");
    payload
}

/// **Exhaustive** byte-split decode identity: one wire frame (prefix +
/// payload) delivered in two writes split at *every* byte boundary —
/// including inside the length prefix — must produce a response
/// bit-identical to the unsplit delivery. The framing layer may never
/// care where the kernel (or a chaotic transport) chops a frame.
#[test]
fn every_byte_split_decodes_identically() {
    let (mut ours, theirs) = duplex_stream();
    let handle = std::thread::spawn(move || serve_session(IoTransport::new(theirs)));

    let mut write_wire = |payload: &[u8], split: Option<usize>| {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        match split {
            None => ours.write_all(&wire).expect("unsplit write"),
            Some(i) => {
                ours.write_all(&wire[..i]).expect("first half");
                ours.flush().expect("flush between halves");
                ours.write_all(&wire[i..]).expect("second half");
            }
        }
        ours.flush().expect("flush");
        read_frame_pipe(&mut ours)
    };

    let bind = encode_request(&Request::Bind {
        backend: BackendId::ExactScan,
        epsilon: 0.0,
        network: sinr_server::NetworkSpec::of(&tiny_network()),
    });
    write_wire(&bind, None);
    let locate = encode_request(&Request::LocateBatch {
        points: vec![
            Point::new(0.5, 0.2),
            Point::new(-3.0, 1.0),
            Point::new(4.0, 0.1),
        ],
    });
    let reference = write_wire(&locate, None);
    for split in 1..locate.len() + 4 {
        let got = write_wire(&locate, Some(split));
        assert_eq!(got, reference, "split at byte {split} changed the response");
    }
    drop(ours);
    assert!(handle.join().is_ok(), "session thread panicked");
}

/// The same identity under [`ChaosStream`] schedules: chaotic chopping
/// and delays on the client's pipe (a fresh seed per iteration — each
/// seed is a different maximal-nastiness split schedule) never change a
/// single answered bit relative to a calm session.
#[test]
fn chaotic_pipe_sessions_answer_identically() {
    let points = [
        Point::new(0.5, 0.2),
        Point::new(-3.0, 1.0),
        Point::new(4.0, 0.1),
    ];
    let net = tiny_network();
    let reference = {
        let (mut client, handle) = owned_session();
        client
            .bind_network(BackendId::ExactScan, 0.0, &net)
            .expect("calm bind");
        let answers = client.locate_batch(&points).expect("calm locate");
        drop(client);
        assert!(handle.join().is_ok());
        answers
    };
    for seed in 0..48u64 {
        let (ours, theirs) = duplex_stream();
        let handle = std::thread::spawn(move || serve_session(IoTransport::new(theirs)));
        let chaos = ChaosStream::new(ours, ChaosConfig::from_seed_no_cut(seed));
        let mut client = Client::new(IoTransport::new(chaos));
        client
            .bind_network(BackendId::ExactScan, 0.0, &net)
            .unwrap_or_else(|e| panic!("chaotic bind, seed {seed}: {e}"));
        let answers = client
            .locate_batch(&points)
            .unwrap_or_else(|e| panic!("chaotic locate, seed {seed}: {e}"));
        assert_eq!(answers, reference, "seed {seed} changed an answer");
        drop(client);
        assert!(
            handle.join().is_ok(),
            "session thread panicked, seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Garbage payloads *through a chaotic transport*: the server sees
    /// the same bytes in nastier deliveries, answers every frame with a
    /// typed error (MalformedFrame for the guaranteed-undecodable tag),
    /// and the session survives into a working bind — chaos on the
    /// wire must not be able to smuggle garbage past the decoder or
    /// wedge the session loop.
    #[test]
    fn garbage_through_chaos_is_typed_and_survivable(
        seed in any::<u64>(),
        garbage in collection::vec(any::<u8>(), 0..160)
    ) {
        let (ours, theirs) = duplex_stream();
        let handle = std::thread::spawn(move || serve_session(IoTransport::new(theirs)));
        let chaos = ChaosStream::new(ours, ChaosConfig::from_seed_no_cut(seed));
        let mut client = Client::new(IoTransport::new(chaos));

        // 0x7F is no known tag: undecodable regardless of the body.
        let mut payload = vec![0x7F];
        payload.extend(&garbage);
        client.send_raw(&payload).expect("send");
        match client.recv() {
            Err(ClientError::Server { code, .. }) => {
                prop_assert_eq!(code, ErrorCode::MalformedFrame)
            }
            other => prop_assert!(false, "expected MalformedFrame, got {other:?}"),
        }
        let net = tiny_network();
        client
            .bind_network(BackendId::ExactScan, 0.0, &net)
            .expect("session survives chaotic garbage");
        let (_, answers) = client
            .locate_batch(&[Point::new(0.5, 0.0)])
            .expect("and still serves");
        prop_assert_eq!(answers.len(), 1);
        drop(client);
        prop_assert!(handle.join().is_ok(), "session thread panicked");
    }
}

/// Deterministic corner: a qds Bind on a network violating the
/// Theorem-3 preconditions (β ≤ 1 here) is BackendBuild, typed.
#[test]
fn qds_precondition_failure_is_backend_build() {
    let (mut client, handle) = owned_session();
    let net = Network::uniform(
        vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)],
        0.0,
        0.8, // β ≤ 1: Theorem 3 does not apply
    )
    .unwrap();
    match client.bind_network(BackendId::Qds, 0.3, &net) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BackendBuild),
        other => panic!("expected BackendBuild, got {other:?}"),
    }
    drop(client);
    assert!(handle.join().is_ok());
}
