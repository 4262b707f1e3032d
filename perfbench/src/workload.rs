//! The three workloads: which sites the server registers, which sessions
//! the client runs in which order, and the client-side script that drives
//! one session over the wire.
//!
//! Every session is driven by a wire-side oracle user that follows
//! `webrobot_interact::drive_session`'s protocol: demonstrate when the
//! server offers nothing, accept the prediction that is consistent with
//! the ground-truth recording (judged with `action_consistent` on the
//! recording's DOM), let automation run while its next action is right,
//! interrupt when it is not. Everything is a function of the seed.

use std::sync::Arc;

use webrobot_benchmarks::{generated, suite, Benchmark, GenFamily};
use webrobot_browser::{Browser, Site, SiteBuilder};
use webrobot_data::{parse_json, Value};
use webrobot_dom::{parse_html, Dom};
use webrobot_interact::Event;
use webrobot_lang::Action;
use webrobot_semantics::action_consistent;
use webrobot_service::{action_from_value, Request};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's demo→authorize→automate loop over the quirk-free suite
    /// and the five generated families.
    Interactive,
    /// Long-history sessions churned through a live cache four times too
    /// small, on a segment store recovered from a SIGKILL.
    DurableChurn,
    /// Short anchor-page sessions plus `metrics` scrapes: the codec,
    /// framing and routing control.
    WireLight,
}

/// Client connections (one client thread each) and server shard threads:
/// `nproc` on the reference machine.
pub const CONNS: usize = 2;
pub const SHARDS: usize = 2;

/// The fixed parameters of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Open-phase arrival rate, requests per second: a tenth to a fifth
    /// of the closed-phase throughput on the 2-vCPU reference machine,
    /// whose speed swings enough that higher rates built backlogs in slow
    /// stretches.
    pub rate: f64,
    /// `ServiceConfig::max_live_sessions` (per shard).
    pub max_live: usize,
    /// Whether the server runs on a segment store.
    pub store: bool,
    /// Sessions per pool benchmark (durable churn) or in all (wire
    /// light); interactive always runs its 70.
    pub sessions: usize,
}

/// The durable-churn pool: quirk-free suite benchmarks with at least 16
/// recorded actions whose searches stay far from the synthesis deadline
/// and whose session records stay small (under 25 KB at the stop point),
/// so that store, codec and restore costs are not hidden behind long
/// searches or megabyte engine digests.
const CHURN_POOL: [u32; 16] = [
    4, 15, 29, 30, 63, 65, 66, 67, 69, 70, 71, 72, 73, 74, 75, 76,
];

/// Durable-churn sessions per pool benchmark, per second of `--seconds`.
const CHURN_COPIES_PER_S: f64 = 1.6;

/// Anchors on the wire-light page: demonstrate 2, accept 2, automate 6,
/// then interrupt, finish, outputs and close — with create and one
/// `metrics` scrape, 16 requests per session.
const ANCHORS: usize = 10;

/// Wire-light sessions per second of `--seconds`.
const WIRE_SESSIONS_PER_S: f64 = 600.0;

impl Workload {
    /// Every workload the benchmark runs by name.
    pub const ALL: [Workload; 3] = [
        Workload::Interactive,
        Workload::DurableChurn,
        Workload::WireLight,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::DurableChurn => "durable-churn",
            Workload::WireLight => "wire-light",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters for a run of `seconds`: everything is
    /// fixed except the size of the durable-churn and wire-light session
    /// lists, which grow with the run.
    pub fn params(self, seconds: f64) -> Params {
        let scaled = |per_s: f64| ((seconds * per_s).ceil() as usize).max(1);
        match self {
            Workload::Interactive => Params {
                rate: 30.0,
                max_live: 64,
                store: false,
                sessions: 1,
            },
            Workload::DurableChurn => {
                let copies = scaled(CHURN_COPIES_PER_S);
                Params {
                    rate: 200.0,
                    // Each shard holds four times the sessions it may keep
                    // live.
                    max_live: (copies * CHURN_POOL.len() / SHARDS / 4).max(1),
                    store: true,
                    sessions: copies,
                }
            }
            Workload::WireLight => Params {
                rate: 1000.0,
                max_live: 64,
                store: false,
                sessions: scaled(WIRE_SESSIONS_PER_S),
            },
        }
    }
}

/// SplitMix64: a tiny, well-mixed deterministic generator for seeded
/// shuffles (no dependency, same stream on every platform).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The wire-light page: `ANCHORS` anchors whose texts depend on the seed.
fn anchor_site(seed: u64) -> Arc<Site> {
    let mut rng = SplitMix::new(seed ^ 0xA11C_0125);
    let body: String = (1..=ANCHORS)
        .map(|i| format!("<a>item {i} {:04x}</a>", rng.next_u64() & 0xffff))
        .collect();
    let mut b = SiteBuilder::new();
    let home = b.add_page(
        "https://anchors.test/",
        parse_html(&format!("<html>{body}</html>")).expect("anchor page parses"),
    );
    Arc::new(b.start_at(home).finish())
}

fn churn_pool() -> Vec<Benchmark> {
    suite()
        .into_iter()
        .filter(|b| CHURN_POOL.contains(&b.id))
        .collect()
}

/// The sites the server registers, by name: only what the workload's
/// sessions use.
pub fn sites(workload: Workload, seed: u64) -> Vec<(String, Arc<Site>, Value)> {
    match workload {
        Workload::Interactive => interactive_benchmarks(seed)
            .into_iter()
            .map(|b| (site_name(&b, seed), b.site, b.input))
            .collect(),
        Workload::DurableChurn => churn_pool()
            .into_iter()
            .map(|b| (site_name(&b, seed), b.site, b.input))
            .collect(),
        Workload::WireLight => vec![(
            "anchors".to_string(),
            anchor_site(seed),
            Value::Object(vec![]),
        )],
    }
}

fn interactive_benchmarks(seed: u64) -> Vec<Benchmark> {
    let mut all: Vec<Benchmark> = suite()
        .into_iter()
        .filter(|b| b.frontend_quirk.is_none())
        .collect();
    all.extend(GenFamily::ALL.into_iter().map(|f| generated(f, seed)));
    all
}

fn site_name(b: &Benchmark, seed: u64) -> String {
    if b.id > 9000 {
        format!("gen-{}-{seed}", b.id)
    } else {
        format!("b{}", b.id)
    }
}

/// One output as the wire renders it: `(kind, payload)`.
pub type WireOutput = (String, String);

/// One session the client runs: the site, the ground-truth recording the
/// oracle follows, and where the session stops.
#[derive(Debug)]
pub struct Plan {
    pub site: String,
    pub site_ref: Arc<Site>,
    pub input: Value,
    /// Recorded actions `a_i`.
    pub actions: Vec<Action>,
    /// `doms[i]` is the page `a_i` was performed on.
    pub doms: Vec<Arc<Dom>>,
    /// The recording's outputs, in order.
    pub outputs: Vec<WireOutput>,
    /// Recorded actions the session executes before it stops (durable
    /// churn stops short of the end; the others run to completion).
    pub stop: usize,
    /// Whether the session finishes, reads its outputs and closes.
    pub complete: bool,
    /// Whether a `metrics` scrape follows the session's create.
    pub scrape: bool,
}

fn output_pair(o: &webrobot_browser::Output) -> WireOutput {
    let kind = match o {
        webrobot_browser::Output::Text(_) => "text",
        webrobot_browser::Output::Link(_) => "link",
        webrobot_browser::Output::Url(_) => "url",
        webrobot_browser::Output::Download(_) => "download",
    };
    (kind.to_string(), o.payload().to_string())
}

fn plan_of(b: &Benchmark, seed: u64, stop_short: bool, scrape: bool) -> Plan {
    let rec = b.record().expect("suite ground truths record");
    let len = rec.trace.len();
    Plan {
        site: site_name(b, seed),
        site_ref: b.site.clone(),
        input: b.input.clone(),
        actions: rec.trace.actions().to_vec(),
        doms: rec.trace.doms().to_vec(),
        outputs: rec.outputs.iter().map(output_pair).collect(),
        stop: if stop_short { len - len / 4 } else { len },
        complete: !stop_short,
        scrape,
    }
}

fn anchor_plan(seed: u64) -> Plan {
    let site = anchor_site(seed);
    let input = Value::Object(vec![]);
    let mut browser = Browser::new(site.clone(), input.clone());
    let mut actions = Vec::new();
    let mut doms = vec![browser.snapshot()];
    for i in 1..=ANCHORS {
        let action = Action::ScrapeText(format!("/a[{i}]").parse().expect("anchor xpath"));
        browser.perform(&action).expect("anchor scrape");
        actions.push(action);
        doms.push(browser.snapshot());
    }
    Plan {
        site: "anchors".to_string(),
        site_ref: site,
        input,
        actions,
        doms,
        outputs: browser.outputs().iter().map(output_pair).collect(),
        stop: ANCHORS,
        complete: true,
        scrape: true,
    }
}

/// The workload's sessions at `seed`, in the order the client runs them.
///
/// Interactive runs its sessions in one fixed order, the suite by id with
/// the generated sites at evenly spaced slots: on two cores, which
/// sessions' searches overlap sets much of the latency, so reordering by
/// seed would make the seed, not the system, move the figures. The seed
/// still chooses the five generated sites.
pub fn plans(workload: Workload, seed: u64, params: &Params) -> Vec<Arc<Plan>> {
    let mut rng = SplitMix::new(seed);
    let mut plans: Vec<Plan> = match workload {
        Workload::Interactive => {
            let all = interactive_benchmarks(seed);
            let (suite, gens): (Vec<_>, Vec<_>) = all.iter().partition(|b| b.id < 9000);
            let stride = suite.len() / gens.len() + 1;
            let mut order = Vec::new();
            let mut gens = gens.into_iter();
            for (i, b) in suite.into_iter().enumerate() {
                if i % stride == stride / 2 {
                    order.extend(gens.next());
                }
                order.push(b);
            }
            order.extend(gens);
            return order
                .into_iter()
                .map(|b| Arc::new(plan_of(b, seed, false, false)))
                .collect();
        }
        Workload::DurableChurn => churn_pool()
            .iter()
            .flat_map(|b| (0..params.sessions).map(move |_| plan_of(b, seed, true, false)))
            .collect(),
        Workload::WireLight => {
            let plan = Arc::new(anchor_plan(seed));
            return (0..params.sessions).map(|_| plan.clone()).collect();
        }
    };
    rng.shuffle(&mut plans);
    plans.into_iter().map(Arc::new).collect()
}

/// Which latency class a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Demonstrate and accept: the user waits for predictions.
    Predict,
    /// Automate steps.
    Automate,
    /// Everything else (create, reject, interrupt, finish, outputs,
    /// close, metrics, checkpoint).
    Other,
}

/// Where a session's script stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Create,
    Scrape,
    Drive,
    Outputs,
    Close,
    /// Stopped short (durable churn): the session stays in the store.
    Parked,
    Done,
}

/// The client side of one session.
#[derive(Clone, Debug)]
pub struct SessionRun {
    pub plan: Arc<Plan>,
    pub id: Option<String>,
    stage: Stage,
    pos: usize,
    mode: String,
    predictions: Vec<Action>,
    steps: usize,
    /// The event awaiting its reply.
    pending: Option<Event>,
    /// Every event the server accepted, in order (replayed in-process by
    /// the traced run).
    pub events: Vec<Event>,
    pub demonstrated: usize,
    pub authorized: usize,
    pub automated: usize,
    /// Outputs the session holds, from the last event reply.
    pub output_count: usize,
    /// Set once the final outputs have been read and checked.
    pub solved: Option<bool>,
    /// Events and executed actions that happened before the measured
    /// server's life (durable churn's first life); the traced replay
    /// rebuilds them without timing them.
    pub baseline: (usize, usize),
}

/// A reply the script could not accept: a refusal, an error, or outputs
/// that differ from the recording.
pub type ScriptError = String;

impl SessionRun {
    pub fn new(plan: Arc<Plan>) -> SessionRun {
        SessionRun {
            plan,
            id: None,
            stage: Stage::Create,
            pos: 0,
            mode: "demonstrate".to_string(),
            predictions: Vec::new(),
            steps: 0,
            pending: None,
            events: Vec::new(),
            demonstrated: 0,
            authorized: 0,
            automated: 0,
            output_count: 0,
            solved: None,
            baseline: (0, 0),
        }
    }

    /// Marks everything so far as happened before the measured run.
    pub fn mark_baseline(&mut self) {
        self.baseline = (self.events.len(), self.executed());
    }

    /// Recorded actions the session has executed.
    pub fn executed(&self) -> usize {
        self.demonstrated + self.authorized + self.automated
    }

    /// Recorded actions the session still has to execute.
    pub fn remaining(&self) -> usize {
        self.plan.stop.saturating_sub(self.pos)
    }

    /// `true` once the session needs no more requests.
    pub fn finished(&self) -> bool {
        matches!(self.stage, Stage::Done | Stage::Parked)
    }

    fn id(&self) -> &str {
        self.id.as_deref().unwrap_or("")
    }

    /// The outputs request for this session.
    pub fn outputs_request(&self) -> String {
        Request::Outputs {
            session: self.id().to_string(),
        }
        .to_json()
    }

    /// The next request, or `None` when the session is finished.
    pub fn next_request(&mut self) -> Option<(String, Class)> {
        let request = match self.stage {
            Stage::Create => Request::Create {
                site: self.plan.site.clone(),
                input: None,
                deadline_ms: None,
            },
            Stage::Scrape => Request::Metrics,
            Stage::Drive => {
                let event = self.next_event();
                let class = match event {
                    Event::Demonstrate(_) | Event::Accept { .. } => Class::Predict,
                    Event::AutomateStep => Class::Automate,
                    _ => Class::Other,
                };
                self.pending = Some(event.clone());
                let text = Request::Event {
                    session: self.id().to_string(),
                    event,
                }
                .to_json();
                return Some((text, class));
            }
            Stage::Outputs => return Some((self.outputs_request(), Class::Other)),
            Stage::Close => Request::Close {
                session: self.id().to_string(),
            },
            Stage::Parked | Stage::Done => return None,
        };
        Some((request.to_json(), Class::Other))
    }

    /// The oracle user's next event, as `drive_session` would choose it.
    fn next_event(&self) -> Event {
        let plan = &self.plan;
        let end = plan.stop;
        if self.steps > plan.actions.len() * 4 + 64 {
            return Event::Finish;
        }
        let approves = |p: &Action| {
            self.pos < end && action_consistent(p, &plan.actions[self.pos], &plan.doms[self.pos])
        };
        match self.mode.as_str() {
            "authorize" => match self.predictions.iter().position(approves) {
                Some(index) => Event::Accept { index },
                None => Event::RejectAll,
            },
            "automate" => match self.predictions.first() {
                Some(p) if approves(p) => Event::AutomateStep,
                _ => Event::Interrupt,
            },
            _ if self.pos < end => Event::Demonstrate(plan.actions[self.pos].clone()),
            _ => Event::Finish,
        }
    }

    /// Advances the script with the reply to the last request. A reply
    /// the script cannot accept abandons the session.
    pub fn on_reply(&mut self, reply: &str) -> Result<(), ScriptError> {
        let result = self.apply(reply);
        if result.is_err() {
            self.abandon();
        }
        result
    }

    /// Stops driving the session after a failure.
    pub fn abandon(&mut self) {
        self.stage = Stage::Done;
        self.solved = Some(false);
    }

    fn apply(&mut self, reply: &str) -> Result<(), ScriptError> {
        let value = parse_json(reply).map_err(|e| format!("unparsable reply {reply:?}: {e}"))?;
        if value.field("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("error reply: {reply}"));
        }
        match self.stage {
            Stage::Create => {
                let id = value
                    .field("session")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("create reply without a session: {reply}"))?;
                self.id = Some(id.to_string());
                self.stage = if self.plan.scrape {
                    Stage::Scrape
                } else {
                    Stage::Drive
                };
            }
            Stage::Scrape => self.stage = Stage::Drive,
            Stage::Drive => self.on_event_reply(&value)?,
            Stage::Outputs => {
                self.check_outputs(reply)?;
                let reached = self.pos == self.plan.stop;
                if reached && self.plan.complete && self.output_count != self.plan.outputs.len() {
                    return Err(format!(
                        "session on {} finished its recording with {} of {} outputs",
                        self.plan.site,
                        self.output_count,
                        self.plan.outputs.len()
                    ));
                }
                self.solved = Some(reached && self.pbd());
                self.stage = if self.plan.complete {
                    Stage::Close
                } else {
                    Stage::Parked
                };
            }
            Stage::Close => self.stage = Stage::Done,
            Stage::Parked | Stage::Done => return Err("reply to a finished session".into()),
        }
        Ok(())
    }

    /// Solved by PBD (paper §7.3): the recording ran to its end with at
    /// least one action the user did not demonstrate.
    fn pbd(&self) -> bool {
        self.authorized + self.automated > 0
    }

    fn on_event_reply(&mut self, value: &Value) -> Result<(), ScriptError> {
        let event = self
            .pending
            .take()
            .ok_or("event reply with no event sent")?;
        self.steps += 1;
        let outcome = value.field("outcome").and_then(Value::as_str).unwrap_or("");
        match &event {
            Event::Demonstrate(_) => {
                self.pos += 1;
                self.demonstrated += 1;
            }
            Event::Accept { .. } => {
                self.pos += 1;
                self.authorized += 1;
            }
            Event::AutomateStep if outcome == "automated" => {
                self.pos += 1;
                self.automated += 1;
            }
            _ => {}
        }
        self.mode = value
            .field("mode")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        self.predictions = value
            .field("predictions")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(action_from_value)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad prediction: {e}"))?;
        self.output_count = value
            .field("outputs")
            .and_then(Value::as_int)
            .unwrap_or(0)
            .max(0) as usize;
        let stopping =
            matches!(event, Event::Finish) || (!self.plan.complete && self.pos >= self.plan.stop);
        self.events.push(event);
        if stopping || self.mode == "done" {
            self.stage = Stage::Outputs;
        }
        Ok(())
    }

    /// Checks an outputs reply against the recording: the session's
    /// outputs must be exactly the recording's first `output_count`.
    pub fn check_outputs(&self, reply: &str) -> Result<(), ScriptError> {
        let got = parse_outputs(reply)?;
        let want = &self.plan.outputs[..self.output_count.min(self.plan.outputs.len())];
        if got != want || got.len() != self.output_count {
            return Err(format!(
                "session {} on {}: outputs differ from the recording ({} read, {} expected)",
                self.id(),
                self.plan.site,
                got.len(),
                self.output_count
            ));
        }
        Ok(())
    }
}

/// The code of a refusal, or `None`: the server did not carry the request
/// out (`overloaded`, `too_many_sessions`), and the user sends it again.
pub fn refusal(reply: &str) -> Option<String> {
    if !reply.contains(r#""status":"error""#) {
        return None;
    }
    let value = parse_json(reply).ok()?;
    let code = value.field("error")?.field("code")?.as_str()?;
    matches!(code, "overloaded" | "too_many_sessions").then(|| code.to_string())
}

/// The `(kind, payload)` list of an outputs reply.
pub fn parse_outputs(reply: &str) -> Result<Vec<WireOutput>, ScriptError> {
    let value = parse_json(reply).map_err(|e| format!("unparsable outputs reply: {e}"))?;
    let items = value
        .field("outputs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("not an outputs reply: {reply}"))?;
    Ok(items
        .iter()
        .map(|o| {
            let field = |k: &str| o.field(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("kind"), field("payload"))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(w: Workload, seed: u64) -> Vec<Arc<Plan>> {
        super::plans(w, seed, &w.params(2.0))
    }

    #[test]
    fn same_seed_same_script_other_seed_other_order() {
        for w in Workload::ALL {
            let a: Vec<String> = plans(w, 7).iter().map(|p| p.site.clone()).collect();
            let b: Vec<String> = plans(w, 7).iter().map(|p| p.site.clone()).collect();
            assert_eq!(a, b, "{}", w.name());
        }
        let a: Vec<String> = plans(Workload::Interactive, 7)
            .iter()
            .map(|p| p.site.clone())
            .collect();
        let b: Vec<String> = plans(Workload::Interactive, 8)
            .iter()
            .map(|p| p.site.clone())
            .collect();
        assert_ne!(a, b, "the generated sites follow the seed");
        assert_eq!(a.len(), 70);
        let order = |w: Workload, seed: u64| -> Vec<String> {
            plans(w, seed).iter().map(|p| p.site.clone()).collect()
        };
        assert_ne!(
            order(Workload::DurableChurn, 7),
            order(Workload::DurableChurn, 8)
        );
        // The anchor texts, and so the expected outputs, follow the seed.
        let wa = plans(Workload::WireLight, 7);
        let wb = plans(Workload::WireLight, 8);
        assert_ne!(wa[0].outputs, wb[0].outputs);
    }

    #[test]
    fn every_session_site_is_registered() {
        for w in Workload::ALL {
            let names: Vec<String> = sites(w, 3).into_iter().map(|(n, _, _)| n).collect();
            for plan in plans(w, 3) {
                assert!(names.contains(&plan.site), "{} on {}", plan.site, w.name());
            }
        }
    }

    #[test]
    fn churn_sessions_stop_short_with_long_histories() {
        for plan in plans(Workload::DurableChurn, 1) {
            assert!(plan.actions.len() >= 16, "{}", plan.site);
            assert!(plan.stop < plan.actions.len());
            assert!(!plan.complete);
        }
    }

    #[test]
    fn oracle_demonstrates_then_accepts_consistent_predictions() {
        let plan = plans(Workload::WireLight, 5).remove(0);
        let mut run = SessionRun::new(plan.clone());
        let (create, _) = run.next_request().unwrap();
        assert!(create.contains(r#""kind":"create""#), "{create}");
        run.on_reply(
            r#"{"v":1,"status":"ok","kind":"created","session":"s-1","mode":"demonstrate"}"#,
        )
        .unwrap();
        let (scrape, _) = run.next_request().unwrap();
        assert!(scrape.contains(r#""kind":"metrics""#));
        run.on_reply(r#"{"v":1,"status":"ok","kind":"metrics"}"#)
            .unwrap();
        let (demo, class) = run.next_request().unwrap();
        assert_eq!(class, Class::Predict);
        assert!(demo.contains("/a[1]"), "{demo}");
        run.on_reply(r#"{"v":1,"status":"ok","kind":"event","session":"s-1","outcome":"recorded","mode":"demonstrate","predictions":[],"outputs":1}"#).unwrap();
        run.next_request().unwrap();
        // The server predicts a[3] (right) and a[5] (wrong): accept index 0.
        run.on_reply(r#"{"v":1,"status":"ok","kind":"event","session":"s-1","outcome":"recorded","mode":"authorize","predictions":[{"op":"scrape_text","selector":"/a[3]"},{"op":"scrape_text","selector":"/a[5]"}],"outputs":2}"#).unwrap();
        let (accept, class) = run.next_request().unwrap();
        assert_eq!(class, Class::Predict);
        assert!(accept.contains(r#""index":0"#), "{accept}");
        // Only a wrong prediction on offer: reject them all.
        run.on_reply(r#"{"v":1,"status":"ok","kind":"event","session":"s-1","outcome":"recorded","mode":"authorize","predictions":[{"op":"scrape_text","selector":"/a[9]"}],"outputs":3}"#).unwrap();
        let (reject, class) = run.next_request().unwrap();
        assert_eq!(class, Class::Other);
        assert!(reject.contains("reject_all"), "{reject}");
    }

    #[test]
    fn refusals_are_told_apart_from_errors() {
        let error = |code: &str| {
            format!(r#"{{"v":1,"status":"error","error":{{"code":"{code}","message":"m"}}}}"#)
        };
        assert_eq!(refusal(&error("overloaded")).as_deref(), Some("overloaded"));
        assert_eq!(
            refusal(&error("too_many_sessions")).as_deref(),
            Some("too_many_sessions")
        );
        assert_eq!(refusal(&error("wrong_mode")), None);
        assert_eq!(refusal(r#"{"v":1,"status":"ok","kind":"closed"}"#), None);
    }

    #[test]
    fn outputs_are_checked_against_the_recording_prefix() {
        let plan = plans(Workload::WireLight, 5).remove(0);
        let mut run = SessionRun::new(plan.clone());
        run.output_count = 2;
        let render = |outs: &[WireOutput]| {
            let items: Vec<String> = outs
                .iter()
                .map(|(k, p)| format!(r#"{{"kind":"{k}","payload":"{p}"}}"#))
                .collect();
            format!(
                r#"{{"v":1,"status":"ok","kind":"outputs","session":"s-1","outputs":[{}]}}"#,
                items.join(",")
            )
        };
        assert!(run.check_outputs(&render(&plan.outputs[..2])).is_ok());
        assert!(run.check_outputs(&render(&plan.outputs[..1])).is_err());
        assert!(run.check_outputs(&render(&plan.outputs[1..3])).is_err());
    }
}
