//! The client request protocol ([`ClientCore`]) driven through a
//! scripted in-memory [`ClientLink`] — no sockets, no threads: window
//! refill and out-of-order completion, an FT search re-issuing under a
//! fresh id — or degrading to empty after its attempt budget — stale
//! completions (an abandoned FT attempt's, a timed-out request's), a
//! frame kind no client is sent,
//! how many frames each operation ships, and when writes ship: inserts
//! — a bulk load's included — in bursts at the lane watermark, and
//! ahead of whatever ships next.

use std::collections::VecDeque;
use std::time::Duration;

use hyperdex_core::{Error, FtCoverage, KeywordHasher, KeywordSet, ObjectId};
use hyperdex_runtime::transport::LANE_WATERMARK;
use hyperdex_runtime::{ClientCore, ClientLink, Request, ShardMap, WireMsg};

const WORKERS: u32 = 4;

/// A scripted in-memory link: no sockets, no threads. `answer`
/// decides, per shipped frame, which replies land in the inbox (and
/// in what order). An empty inbox means nobody is going to answer:
/// `recv` sets its clock, which is virtual, to the caller's deadline and
/// reports it missed.
struct FakeLink {
    now: Duration,
    queued: Vec<(u32, WireMsg)>,
    /// Encoded bytes of `queued`.
    queued_bytes: usize,
    /// Everything ever shipped, in ship order.
    shipped: Vec<(u32, WireMsg)>,
    /// How many frames each `ship` call carried.
    bursts: Vec<usize>,
    inbox: VecDeque<WireMsg>,
    #[allow(clippy::type_complexity)]
    answer: Box<dyn FnMut(&[(u32, WireMsg)], &mut VecDeque<WireMsg>)>,
}

impl ClientLink for FakeLink {
    fn queue(&mut self, worker: u32, msg: &WireMsg) {
        self.queued_bytes += msg.encode().len();
        self.queued.push((worker, msg.clone()));
    }

    fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    fn ship(&mut self) -> Result<(), Error> {
        if self.queued.is_empty() {
            return Ok(());
        }
        (self.answer)(&self.queued, &mut self.inbox);
        self.bursts.push(self.queued.len());
        self.shipped.append(&mut self.queued);
        self.queued_bytes = 0;
        Ok(())
    }

    fn now(&self) -> Duration {
        self.now
    }

    fn recv(
        &mut self,
        deadline: Option<Duration>,
        _awaiting: Option<u32>,
    ) -> Result<Option<WireMsg>, Error> {
        if let Some(msg) = self.inbox.pop_front() {
            return Ok(Some(msg));
        }
        self.now = deadline.expect("a wait nobody will answer needs a deadline");
        Ok(None)
    }
}

fn client(
    answer: impl FnMut(&[(u32, WireMsg)], &mut VecDeque<WireMsg>) + 'static,
) -> ClientCore<FakeLink> {
    let link = FakeLink {
        now: Duration::ZERO,
        queued: Vec::new(),
        queued_bytes: 0,
        shipped: Vec::new(),
        bursts: Vec::new(),
        inbox: VecDeque::new(),
        answer: Box::new(answer),
    };
    ClientCore::new(
        KeywordHasher::new(8, 42).unwrap(),
        ShardMap::new(8, WORKERS, 42),
        link,
        Some(Duration::from_millis(20)),
    )
}

fn set(s: &str) -> KeywordSet {
    KeywordSet::parse(s).unwrap()
}

/// A successful FT completion whose one match is the query id.
fn ft_done(query_id: u64) -> WireMsg {
    WireMsg::FtQueryDone {
        query_id,
        objects: vec![(query_id, 0)],
        coverage: FtCoverage {
            subcube_vertices: 4,
            reached: 4,
            queries_sent: 4,
            conts: 3,
            result_messages: 1,
            ..FtCoverage::default()
        },
    }
}

/// The honest reply to a pin, sequential query, FT query or flush
/// frame.
fn echo(worker: u32, msg: &WireMsg) -> WireMsg {
    match msg {
        WireMsg::FtQuery { query_id, .. } => ft_done(*query_id),
        WireMsg::Pin { query_id, .. } => WireMsg::PinResults {
            query_id: *query_id,
            objects: vec![*query_id],
        },
        WireMsg::QueryAt { query_id, .. } => WireMsg::QueryDone {
            query_id: *query_id,
            objects: vec![(*query_id, 1)],
        },
        // Worker `w`'s shard stands at epoch `100 + w`.
        WireMsg::Flush { token } => WireMsg::FlushAck {
            token: *token,
            worker,
            epoch: 100 + u64::from(worker),
        },
        other => panic!("no canned reply for {other:?}"),
    }
}

#[test]
fn stale_replies_are_dropped_by_every_wait() {
    // Nobody answers the first pin in time. Its reply then lands ahead
    // of the replies to every later burst, and with it the completion
    // of an FT attempt the client abandoned.
    let mut c = client({
        let mut late = None;
        move |burst, inbox| match &late {
            None => late = Some(echo(burst[0].0, &burst[0].1)),
            Some(stale) => {
                inbox.extend([stale.clone(), ft_done(9_999)]);
                inbox.extend(burst.iter().map(|(w, msg)| echo(*w, msg)));
            }
        }
    });
    assert!(matches!(
        c.pin_search(&set("slow")),
        Err(Error::Timeout { .. })
    ));
    // Every canned reply carries its query id as the object: the
    // second pin (id 2) gets its own, not the first one's.
    assert_eq!(
        c.pin_search(&set("next")).unwrap(),
        vec![ObjectId::from_raw(2)]
    );
    assert_eq!(c.superset_search(&set("a"), 5).unwrap()[0].object.raw(), 3);
    c.flush().unwrap();

    let requests = [
        Request::Pin(set("a")),
        Request::Superset {
            keywords: set("b"),
            threshold: 3,
        },
    ];
    let batch = c.run_batch(&requests, 2).unwrap();
    let objects: Vec<u64> = batch.iter().map(|r| r.objects[0].raw()).collect();
    assert_eq!(objects, vec![5, 6], "id 4 was the barrier's token");

    for keywords in [set("one"), set("two")] {
        let out = c.superset_search_ft(&keywords, 16).unwrap();
        assert!(out.complete && out.attempts == 1);
    }
    assert_eq!(c.into_link().shipped.len(), 11, "nothing was re-issued");
}

#[test]
fn a_frame_kind_no_client_is_sent_is_a_typed_error() {
    let stray = hyperdex_runtime::wire::exemplars()
        .into_iter()
        .find(|msg| matches!(msg, WireMsg::RegionQuery { .. }))
        .expect("the exemplars cover every kind");
    let mut c = client(move |_, inbox| inbox.push_back(stray.clone()));
    assert_eq!(
        c.pin_search(&set("a")),
        Err(Error::UnexpectedFrame {
            kind: "RegionQuery".to_string()
        })
    );
}

#[test]
fn run_batch_matches_out_of_order_completions_and_counts_frames() {
    // Each burst is answered newest-first.
    let mut c = client(|burst, inbox| {
        inbox.extend(burst.iter().rev().map(|(w, msg)| echo(*w, msg)));
    });
    let requests: Vec<Request> = (0..7)
        .map(|i| {
            if i % 2 == 0 {
                Request::Pin(set(&format!("pin{i}")))
            } else {
                Request::Superset {
                    keywords: set(&format!("sup{i}")),
                    threshold: 4,
                }
            }
        })
        .collect();
    let out = c.run_batch(&requests, 3).unwrap();
    // Ids are issued 1..=7 in request order and every canned reply
    // carries its id as the object, so slot i holds object i + 1
    // however the completions were ordered.
    for (slot, result) in out.iter().enumerate() {
        assert_eq!(result.objects, vec![ObjectId::from_raw(slot as u64 + 1)]);
    }
    let link = c.into_link();
    assert_eq!(link.shipped.len(), 7, "one frame per request");
    // A full window first, then one refill per completion.
    assert_eq!(link.bursts, vec![3, 1, 1, 1, 1]);
    // One routing rule: a pin and a superset search alike go to the
    // owner of their keywords' vertex.
    let hasher = KeywordHasher::new(8, 42).unwrap();
    let shards = ShardMap::new(8, WORKERS, 42);
    for (worker, msg) in &link.shipped {
        let (WireMsg::QueryAt { keywords, .. } | WireMsg::Pin { keywords, .. }) = msg else {
            panic!("only pins and superset searches were requested: {msg:?}");
        };
        assert_eq!(*worker, shards.owner_of(hasher.vertex_for(keywords).bits()));
    }
}

/// The id of the one FT query a burst carries.
fn ft_id(burst: &[(u32, WireMsg)]) -> u64 {
    let [(_, WireMsg::FtQuery { query_id, .. })] = burst else {
        panic!("expected one FT query, got {burst:?}");
    };
    *query_id
}

#[test]
fn an_ft_search_reissues_under_a_fresh_id_and_drops_the_late_completion() {
    // The first attempt is answered only after its deadline: its
    // completion lands with the re-issue's burst, ahead of the
    // re-issue's own. Every later burst is answered at once.
    let mut c = client({
        let mut bursts = 0;
        move |burst, inbox| {
            let id = ft_id(burst);
            bursts += 1;
            match bursts {
                1 => {}
                2 => inbox.extend([ft_done(id - 1), ft_done(id)]),
                _ => inbox.push_back(ft_done(id)),
            }
        }
    });
    let out = c.superset_search_ft(&set("late query"), 16).unwrap();
    assert!(out.complete);
    assert_eq!(out.attempts, 2);
    // Id 1 went out first; the re-issue got the fresh id 2, and its
    // completion, not the late one of id 1, is the outcome.
    assert_eq!(out.matches[0].object.raw(), 2);
    // The coordinator's accounting comes through as the frame had it.
    let WireMsg::FtQueryDone { coverage, .. } = ft_done(2) else {
        unreachable!()
    };
    assert_eq!(out.coverage, Some(coverage));
    // Nothing of the first search is left to answer the next one.
    let next = c.superset_search_ft(&set("next"), 16).unwrap();
    assert_eq!((next.attempts, next.matches[0].object.raw()), (1, 3));
    assert_eq!(
        c.into_link().shipped.len(),
        3,
        "two searches + one re-issue"
    );
}

#[test]
fn a_degraded_ft_search_reissued_under_fresh_ids_leaves_the_next_answered() {
    let doomed = set("doomed query");
    // The doomed search is never answered; everything else is, at once.
    let mut c = client({
        let doomed = doomed.clone();
        move |burst, inbox| {
            let id = ft_id(burst);
            if !matches!(&burst[0].1, WireMsg::FtQuery { keywords, .. } if *keywords == doomed) {
                inbox.push_back(ft_done(id));
            }
        }
    });
    let out = c.superset_search_ft(&doomed, 16).unwrap();
    // The doomed search degrades honestly after its five attempts ...
    assert!(!out.complete && out.matches.is_empty());
    assert_eq!((out.attempts, out.coverage.as_ref()), (5, None));
    // ... and the searches after it complete at their first attempt,
    // under the ids after its five.
    for (keywords, id) in [(set("one"), 6), (set("two"), 7)] {
        let out = c.superset_search_ft(&keywords, 16).unwrap();
        assert!(out.complete && out.attempts == 1);
        assert_eq!(out.matches[0].object.raw(), id);
    }
    let link = c.into_link();
    assert_eq!(link.bursts, vec![1; 7]);
    let doomed_ids: Vec<u64> = link
        .shipped
        .iter()
        .filter_map(|(_, msg)| match msg {
            WireMsg::FtQuery {
                query_id, keywords, ..
            } if *keywords == doomed => Some(*query_id),
            _ => None,
        })
        .collect();
    assert_eq!(doomed_ids, vec![1, 2, 3, 4, 5]);
}

#[test]
fn ft_search_degrades_to_empty_after_its_attempts() {
    let mut c = client(|_, _| {});
    let out = c.superset_search_ft(&set("void"), 8).unwrap();
    assert!(!out.complete);
    assert_eq!(out.attempts, 5);
    assert!(out.matches.is_empty());
    assert!(out.coverage.is_none(), "nobody ever answered");
    let link = c.into_link();
    assert_eq!(link.shipped.len(), 5, "one frame per attempt");
    // Each attempt waited out its whole 10 s deadline.
    assert_eq!(link.now, Duration::from_secs(50));
}

#[test]
fn flush_reaches_every_worker_in_one_burst_and_a_silent_one_times_out() {
    let mut c = client(|burst, inbox| {
        inbox.extend(burst.iter().map(|(w, msg)| echo(*w, msg)));
    });
    c.flush().unwrap();
    let link = c.into_link();
    let dests: Vec<u32> = link.shipped.iter().map(|(w, _)| *w).collect();
    assert_eq!(dests, vec![0, 1, 2, 3]);
    assert_eq!(link.bursts, vec![4]);

    // Worker 2 never acks: the barrier reports which wait expired.
    let mut c = client(|burst, inbox| {
        inbox.extend(
            burst
                .iter()
                .filter(|(w, _)| *w != 2)
                .map(|(w, msg)| echo(*w, msg)),
        );
    });
    match c.flush() {
        Err(Error::Timeout {
            operation,
            after_ms,
        }) => {
            assert!(operation.contains("flush"), "{operation}");
            assert_eq!(after_ms, 20);
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn the_superset_frame_after_a_flush_ack_carries_its_epoch() {
    let marks_of = |link: &FakeLink| match &link.shipped.last().expect("a frame shipped").1 {
        WireMsg::QueryAt { marks, .. } => marks.clone(),
        other => panic!("superset searches ship QueryAt, got {other:?}"),
    };
    // Before any barrier the marks are all zero — but they are sent.
    let mut c = client(|burst, inbox| {
        inbox.extend(burst.iter().map(|(w, msg)| echo(*w, msg)));
    });
    c.superset_search(&set("a"), 5).unwrap();
    assert_eq!(marks_of(&c.into_link()), vec![0; WORKERS as usize]);

    let mut c = client(|burst, inbox| {
        // Ahead of a barrier's acks lands a late ack of an abandoned
        // one: its token matches nothing, its epoch still counts.
        if matches!(burst[0].1, WireMsg::Flush { .. }) {
            inbox.push_back(WireMsg::FlushAck {
                token: 9_999,
                worker: 2,
                epoch: 500,
            });
        }
        inbox.extend(burst.iter().map(|(w, msg)| echo(*w, msg)));
    });
    c.flush().unwrap();
    c.superset_search(&set("a"), 5).unwrap();
    c.flush().unwrap();
    let batch = [Request::Superset {
        keywords: set("b"),
        threshold: 3,
    }];
    c.run_batch(&batch, 1).unwrap();
    let link = c.into_link();
    // Worker w acks at epoch 100 + w; the stray ack raised worker 2's
    // mark, and a mark never goes back down.
    let expected = vec![100, 101, 500, 103];
    assert_eq!(marks_of(&link), expected);
    let first_query = link
        .shipped
        .iter()
        .map(|(_, msg)| msg)
        .find(|msg| matches!(msg, WireMsg::QueryAt { .. }))
        .expect("a superset frame");
    assert!(
        matches!(first_query, WireMsg::QueryAt { marks, .. } if marks == &expected),
        "the very next frame carries the epochs: {first_query:?}"
    );
    // 4 + 1 + 4 + 1: the marks ride the request, no frame is added.
    assert_eq!(link.shipped.len(), 10);
}

#[test]
fn bad_arguments_are_rejected_before_anything_ships() {
    let mut c = client(|_, _| panic!("nothing may ship"));
    assert!(matches!(
        c.insert(ObjectId::from_raw(1), KeywordSet::new()),
        Err(Error::EmptyKeywordSet)
    ));
    // Not even the entries ahead of the empty one.
    let (full, empty) = (set("a"), KeywordSet::new());
    let entries = [&full, &empty].map(|k| (ObjectId::from_raw(1), k));
    assert!(matches!(c.bulk_load(entries), Err(Error::EmptyKeywordSet)));
    assert!(matches!(
        c.superset_search(&set("a"), 0),
        Err(Error::ZeroThreshold)
    ));
    let ft = c.superset_search_ft(&set("a"), 0);
    assert!(matches!(ft, Err(Error::ZeroThreshold)));
}

/// Answers every frame of a burst but the writes, which get no reply.
fn answer_reads(burst: &[(u32, WireMsg)], inbox: &mut VecDeque<WireMsg>) {
    inbox.extend(
        burst
            .iter()
            .filter(|(_, msg)| !matches!(msg, WireMsg::Insert { .. }))
            .map(|(w, msg)| echo(*w, msg)),
    );
}

#[test]
fn inserts_ship_in_bursts_at_the_lane_watermark_and_the_flush_carries_the_tail() {
    let mut c = client(answer_reads);
    let keywords = set("coalesced insert");
    let frame = WireMsg::Insert {
        object: 0,
        keywords: keywords.clone(),
    }
    .encode()
    .len();
    // Equal frames: a burst is the first count of them to reach the
    // watermark, and N inserts ship ⌈N / per_burst⌉ times, the last of
    // them with the barrier.
    let per_burst = LANE_WATERMARK.div_ceil(frame);
    let n = 3 * per_burst + 5;
    for object in 0..n as u64 {
        c.insert(ObjectId::from_raw(object), keywords.clone())
            .unwrap();
    }
    c.flush().unwrap();
    let link = c.into_link();
    assert_eq!(
        link.bursts,
        vec![per_burst, per_burst, per_burst, 5 + WORKERS as usize]
    );
    assert_eq!(link.bursts.len(), n.div_ceil(per_burst));
    let objects: Vec<u64> = link
        .shipped
        .iter()
        .filter_map(|(_, msg)| match msg {
            WireMsg::Insert { object, .. } => Some(*object),
            _ => None,
        })
        .collect();
    assert_eq!(
        objects,
        (0..n as u64).collect::<Vec<_>>(),
        "one frame each, in order"
    );
}

#[test]
fn a_search_or_a_flush_puts_every_queued_insert_on_the_link_first() {
    let mut c = client(answer_reads);
    let hasher = KeywordHasher::new(8, 42).unwrap();
    let shards = ShardMap::new(8, WORKERS, 42);
    let sets: Vec<KeywordSet> = (0..12).map(|i| set(&format!("w{i} shared"))).collect();
    let owners: Vec<u32> = sets
        .iter()
        .map(|k| shards.owner_of(hasher.vertex_for(k).bits()))
        .collect();
    assert!(
        owners.iter().any(|&w| w != owners[0]),
        "writes for several workers"
    );
    let insert = |object: u64, keywords: &KeywordSet| WireMsg::Insert {
        object,
        keywords: keywords.clone(),
    };
    for (i, keywords) in sets.iter().enumerate() {
        c.insert(ObjectId::from_raw(i as u64), keywords.clone())
            .unwrap();
    }
    // The pin's reply carries its id, 1: the inserts took none.
    assert_eq!(
        c.pin_search(&set("lookup")).unwrap(),
        vec![ObjectId::from_raw(1)]
    );
    for (i, keywords) in sets.iter().enumerate() {
        c.insert(ObjectId::from_raw(100 + i as u64), keywords.clone())
            .unwrap();
    }
    c.flush().unwrap();
    let link = c.into_link();
    assert_eq!(link.bursts, vec![12 + 1, 12 + WORKERS as usize]);
    let mut expected: Vec<(u32, WireMsg)> = (0..12)
        .map(|i| (owners[i], insert(i as u64, &sets[i])))
        .collect();
    let pin_owner = shards.owner_of(hasher.vertex_for(&set("lookup")).bits());
    expected.push((
        pin_owner,
        WireMsg::Pin {
            query_id: 1,
            keywords: set("lookup"),
        },
    ));
    expected.extend((0..12).map(|i| (owners[i], insert(100 + i as u64, &sets[i]))));
    expected.extend((0..WORKERS).map(|w| (w, WireMsg::Flush { token: 2 })));
    assert_eq!(link.shipped, expected);
}

#[test]
fn bulk_load_puts_on_the_link_exactly_the_frames_the_same_inserts_do_in_the_same_bursts() {
    let corpus: Vec<(ObjectId, KeywordSet)> = (0..3_000u64)
        .map(|i| {
            let keywords = set(&format!("k{} k{} k{}", i % 97, i % 89, i % 7));
            (ObjectId::from_raw(i), keywords)
        })
        .collect();
    let mut c = client(answer_reads);
    c.bulk_load(corpus.iter().map(|(id, k)| (*id, k))).unwrap();
    let bulk = c.into_link();
    // The same entries inserted one by one, the tail shipped by a
    // barrier.
    let mut c = client(answer_reads);
    for (id, keywords) in &corpus {
        c.insert(*id, keywords.clone()).unwrap();
    }
    c.flush().unwrap();
    let inserted = c.into_link();
    let barrier = WORKERS as usize;
    let (tail, full) = bulk.bursts.split_last().unwrap();
    assert!(
        full.len() > 1,
        "the load crosses the watermark: {:?}",
        bulk.bursts
    );
    assert_eq!(inserted.bursts, [full, &[tail + barrier]].concat());
    assert_eq!(
        bulk.shipped[..],
        inserted.shipped[..inserted.shipped.len() - barrier]
    );
    // One `Insert` per entry, in input order, to its vertex's owner.
    let hasher = KeywordHasher::new(8, 42).unwrap();
    let shards = ShardMap::new(8, WORKERS, 42);
    let expected: Vec<(u32, WireMsg)> = corpus
        .iter()
        .map(|(id, keywords)| {
            let owner = shards.owner_of(hasher.vertex_for(keywords).bits());
            let object = id.raw();
            let keywords = keywords.clone();
            (owner, WireMsg::Insert { object, keywords })
        })
        .collect();
    assert_eq!(bulk.shipped, expected);
}
