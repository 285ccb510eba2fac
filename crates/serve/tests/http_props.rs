//! Generated-input tests for the HTTP/1.1 request parser: arbitrary heads,
//! truncated and spliced requests, and odd `Content-Length` values. Every
//! case must return a request or a typed [`HttpError`], never panic, and
//! never allocate more than [`MAX_BODY_BYTES`] at once — checked by a
//! global allocator that records the largest request made while a parse
//! runs on the current thread. A body must grow with the bytes received,
//! not with the length its head announces.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use swact_serve::http::{read_request, HttpError, Request, MAX_BODY_BYTES};

struct Tracking;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            LARGEST.with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; `note` only reads and
// writes const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Parses `raw` and returns the result with the largest single
/// allocation the parse made.
fn parse_tracked(raw: &[u8]) -> (Result<Request, HttpError>, usize) {
    TRACKING.with(|on| on.set(true));
    LARGEST.with(|largest| largest.set(0));
    let result = read_request(&mut &raw[..]);
    TRACKING.with(|on| on.set(false));
    (result, LARGEST.with(Cell::get))
}

/// Parses `raw` and checks the properties every input must keep: no
/// allocation above the body cap, and an accepted body within it.
fn parse(raw: &[u8]) -> Result<Request, HttpError> {
    let (result, largest) = parse_tracked(raw);
    assert!(
        largest <= MAX_BODY_BYTES,
        "allocated {largest} bytes for a {}-byte request",
        raw.len()
    );
    if let Ok(request) = &result {
        assert!(request.body.len() <= MAX_BODY_BYTES);
    }
    result
}

/// Fragments that make up plausible and broken request heads.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    let pool: Vec<&[u8]> = vec![
        b"GET",
        b"POST",
        b" ",
        b"\t",
        b"/v1/estimate",
        b"/healthz?x=1",
        b"HTTP/1.1",
        b"HTTP/1.0",
        b"HTTP/2",
        b"\r\n",
        b"\n",
        b"\r",
        b":",
        b"Host",
        b"Content-Length",
        b"content-length",
        b"Transfer-Encoding",
        b"chunked",
        b"0",
        b"4",
        b"99999999999999999999",
        b"body",
        b"\xff",
        b"\xc3",
        b"\xe2\x82\xac",
        b"\0",
    ];
    prop_oneof![
        proptest::sample::select(pool).prop_map(<[u8]>::to_vec),
        proptest::collection::vec(any::<u8>(), 1..8),
    ]
}

/// A random head built from [`fragment`]s.
fn head() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(fragment(), 0..40).prop_map(|parts| parts.concat())
}

/// A well-formed request with a random body and extra headers.
fn request() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::sample::select(vec!["GET", "POST", "PUT"]),
        proptest::sample::select(vec!["/", "/v1/estimate", "/v1/sweep", "/metrics"]),
        proptest::collection::vec(0u8..26, 0..4),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(method, path, names, body)| {
            let mut raw = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
            for n in names {
                let name = char::from(b'a' + n);
                raw.extend(format!("X-{name}: v{n}\r\n").into_bytes());
            }
            raw.extend(format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes());
            raw.extend(body);
            raw
        })
}

/// `Content-Length` values: hostile spellings, overflowing and
/// just-over-the-cap numbers, and small ones.
fn content_length() -> impl Strategy<Value = String> {
    let odd: Vec<String> = [
        "",
        " ",
        "-1",
        "+4",
        "0x10",
        "4,4",
        "4 4",
        "1e3",
        "\u{664}",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([MAX_BODY_BYTES, MAX_BODY_BYTES + 1, usize::MAX].map(|n| n.to_string()))
    .collect();
    prop_oneof![
        proptest::sample::select(odd),
        any::<u64>().prop_map(|n| n.to_string()),
        (0usize..64).prop_map(|n| n.to_string()),
        (0usize..64).prop_map(|n| format!(" {n} ")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_heads_parse_or_error(raw in head()) {
        let _ = parse(&raw);
    }

    #[test]
    fn truncated_and_spliced_requests_parse_or_error(
        a in request(),
        b in request(),
        cut in any::<usize>(),
        from in any::<usize>(),
    ) {
        // A whole request parses, with exactly its body.
        let whole = parse(&a).expect("well-formed request");
        prop_assert!(a.ends_with(&whole.body));
        let cut = cut % (a.len() + 1);
        let truncated = parse(&a[..cut]);
        if cut < a.len() {
            prop_assert!(truncated.is_err(), "a truncated request parsed");
        }
        let from = from % (b.len() + 1);
        let _ = parse(&[&a[..cut], &b[from..]].concat());
    }

    #[test]
    fn content_length_is_all_digits_and_capped(
        value in content_length(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut raw = format!("POST /v1/estimate HTTP/1.1\r\nContent-Length: {value}\r\n\r\n")
            .into_bytes();
        raw.extend(&body);
        let result = parse(&raw);
        let digits = value.trim();
        let accepted = match digits.parse::<usize>() {
            Ok(n) if digits.bytes().all(|b| b.is_ascii_digit()) => Some(n),
            _ => None,
        };
        match accepted {
            Some(n) if n <= body.len() => {
                let request = result.expect("a valid length within the body parses");
                prop_assert_eq!(&request.body[..], &body[..n]);
            }
            Some(n) if n <= MAX_BODY_BYTES => {
                prop_assert!(matches!(result, Err(HttpError::Io(_))), "short body");
            }
            _ => prop_assert!(
                matches!(result, Err(HttpError::BadRequest(_))),
                "Content-Length `{value}`"
            ),
        }
    }
}

/// A head that announces the largest allowed body, then a few body bytes,
/// then nothing: a client that stalls. The parse fails as a short body,
/// and its largest allocation tracks what arrived — the reader's fixed
/// 8 KiB buffer for a 60-byte request, twice the received body beyond
/// that — never the announced 4 MiB.
#[test]
fn a_stalled_body_allocates_what_arrived() {
    let head = format!("POST /v1/estimate HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
    for received in [60 - head.len(), 100_000] {
        let mut raw = head.clone().into_bytes();
        raw.resize(head.len() + received, b'x');
        let (result, largest) = parse_tracked(&raw);
        assert!(matches!(result, Err(HttpError::Io(_))), "short body");
        assert!(
            largest <= (2 * received).max(8 << 10),
            "allocated {largest} bytes for a {}-byte request",
            raw.len()
        );
    }
}
