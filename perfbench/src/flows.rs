//! The operations a client performs, in two forms.
//!
//! Untraced runs call the program's composite public API
//! (`story6_jupyter`, `federated_login`, `story4_ssh_connect`,
//! `kill_user`, ...), which is what the end-to-end metrics measure.
//!
//! Traced runs perform the same steps as the benchmark's own sequence of
//! calls into each layer's public functions, each wrapped in a span
//! named `layer.call`. Where one layer calls the next internally (edge →
//! tunnel → Jupyter spawn), the benchmark re-registers the tunnel's
//! `/jupyter` backend so the spawn is timed as a child of the edge call.

use std::sync::Arc;

use isambard_dri::broker::authz::AuthorizationSource;
use isambard_dri::cluster::jupyter::NotebookSession;
use isambard_dri::cluster::login::ShellSession;
use isambard_dri::core::PROXY_ENTITY;
use isambard_dri::crypto::json::Value;
use isambard_dri::netsim::bastion::RelaySession;
use isambard_dri::netsim::tunnel::{HttpRequest, HttpResponse};
use isambard_dri::policy::trust::{AccessRequest, DevicePosture, Sensitivity, SourceZone};
use isambard_dri::portal::project::DataClass;
use isambard_dri::prelude::*;
use isambard_dri::siem::events::{EventKind, SecurityEvent, Severity};
use isambard_dri::sshca::client::SshCertClient;
use isambard_dri::trace::Stage;

use crate::population::User;
use crate::spans::span;

/// Tunnel route whose backend does no work: timing a request down it
/// gives the tunnel's own cost for a story-6-sized request.
pub const ECHO_PATH: &str = "/perfbench-echo";

pub type Headers = Vec<(String, String)>;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// --- Composite public API (untraced runs) ------------------------------------

pub fn story6(infra: &Infrastructure, u: &User, ip: &str) -> Result<NotebookSession, String> {
    infra
        .story6_jupyter(u.label.as_str(), &u.project, ip)
        .map(|o| o.notebook)
        .map_err(text)
}

pub fn login(infra: &Infrastructure, u: &User) -> Result<String, String> {
    infra
        .federated_login(&u.label)
        .map(|s| s.session_id)
        .map_err(text)
}

pub fn ssh(infra: &Infrastructure, u: &User) -> Result<(RelaySession, ShellSession), String> {
    infra
        .story4_ssh_connect(u.label.as_str(), &u.project)
        .map(|o| (o.relay, o.shell))
        .map_err(text)
}

// --- Operations shared by both forms ------------------------------------------

/// Close a shell and end the broker session: the user logs out.
pub fn logout(infra: &Infrastructure, shell_id: &str, session_id: &str) {
    span("cluster.login_close_session", || {
        infra.login_node.close_session(shell_id)
    });
    span("broker.revoke_session", || {
        infra.broker.revoke_session(session_id)
    });
}

pub fn stop_notebook(infra: &Infrastructure, id: &str) -> bool {
    span("cluster.jupyter_stop", || infra.jupyter.stop(id))
}

/// A jupyter token for the user, minted exactly as story 6 mints it.
pub fn jupyter_token(infra: &Infrastructure, u: &User) -> Result<String, String> {
    span("broker.issue_token", || {
        infra.token_for(
            &u.label,
            "jupyter",
            vec![
                ("unix_account".to_string(), Value::s(&u.account)),
                ("project".to_string(), Value::s(&u.project)),
            ],
        )
    })
    .map(|(token, _)| token)
    .map_err(text)
}

/// Present a token straight to the notebook spawner.
pub fn spawn_with_token(infra: &Infrastructure, token: &str) -> Result<NotebookSession, String> {
    let headers = vec![("x-auth-token".to_string(), token.to_string())];
    span("cluster.jupyter_spawn", || infra.jupyter.spawn(&headers)).map_err(text)
}

pub fn reinstate(infra: &Infrastructure, subject: &str) {
    span("core.reinstate_user", || infra.reinstate_user(subject));
}

/// Rotate the broker's signing key and distribute the new JWKS to the
/// relying services that validate tokens.
pub fn rotate_keys(infra: &Infrastructure, seed: [u8; 32]) {
    span("broker.rotate_keys", || infra.broker.rotate_keys(seed));
    let jwks = span("broker.jwks", || infra.broker.jwks());
    span("cluster.jupyter_update_jwks", || {
        infra.jupyter.update_jwks(jwks.clone())
    });
    span("sshca.update_jwks", || infra.ssh_ca.update_jwks(jwks));
}

/// The SOC kill switch for one subject. Untraced runs call `kill_user`;
/// traced runs perform its steps one layer call at a time.
pub fn kill(infra: &Infrastructure, subject: &str, traced: bool) {
    if !traced {
        infra.kill_user(subject);
        return;
    }
    span("core.kill_user", || {
        let at_ms = infra.clock.now_ms();
        let origin_trace = span("broker.sessions_of_subject", || {
            infra.broker.sessions_of_subject(subject)
        })
        .into_iter()
        .rev()
        .find_map(|s| s.trace_id);
        span("policy.bump_epoch", || infra.pdp.bump_epoch());
        span("broker.revoke_subject", || {
            infra.broker.revoke_subject(subject)
        });
        let _ = span("federation.set_suspended", || {
            infra.proxy.set_suspended(subject, true)
        });
        let relays = span("netsim.bastion_block_user", || {
            infra.bastion.block_user(subject)
        });
        let shells = span("cluster.login_sever_by_key_id", || {
            infra.login_node.sever_by_key_id(subject)
        });
        let notebooks = span("cluster.jupyter_sever_subject", || {
            infra.jupyter.sever_subject(subject)
        });
        let mut jobs = 0;
        for (_, account) in span("portal.unix_accounts", || {
            infra.portal.unix_accounts(subject)
        }) {
            jobs += span("cluster.slurm_cancel_user_jobs", || {
                infra.scheduler.cancel_user_jobs(&account)
            });
            span("cluster.login_set_locked", || {
                infra.login_node.set_locked(&account, true)
            });
        }
        span("siem.enqueue", || {
            infra.siem.enqueue(
                SecurityEvent::new(
                    at_ms,
                    "sec/siem",
                    EventKind::KillSwitch,
                    subject,
                    format!(
                        "kill chain: bastion={relays} shells={shells} \
                         notebooks={notebooks} jobs={jobs}"
                    ),
                    Severity::Critical,
                )
                .with_trace_id(origin_trace),
            )
        });
    });
}

// --- Layer-by-layer forms (traced runs) ---------------------------------------

/// Replace the tunnel's `/jupyter` backend with one that times the
/// spawn, and add the echo route used to time the tunnel on its own.
pub fn install_traced_backends(infra: &Infrastructure, keys: [[u8; 32]; 2]) {
    let jupyter = infra.jupyter.clone();
    let spawn = Arc::new(move |req: HttpRequest| {
        match span("cluster.jupyter_spawn", || jupyter.spawn(&req.headers)) {
            Ok(session) => HttpResponse {
                status: 200,
                body: session.id.into_bytes(),
            },
            Err(e) => HttpResponse {
                status: 403,
                body: e.to_string().into_bytes(),
            },
        }
    });
    let echo = Arc::new(|_req: HttpRequest| {
        span("probe.echo", || HttpResponse {
            status: 200,
            body: b"nb-000000".to_vec(),
        })
    });
    for (path, backend, key) in [
        (
            "/jupyter",
            spawn as isambard_dri::netsim::tunnel::Backend,
            keys[0],
        ),
        (ECHO_PATH, echo, keys[1]),
    ] {
        let key = isambard_dri::crypto::x25519::clamp(key);
        infra
            .tunnel
            .register_tunnel(&infra.network, "mdc/login01", &key, path, backend)
            .expect("the login node may dial the tunnel server");
    }
}

fn flow_open(
    infra: &Infrastructure,
    u: &User,
    name: &'static str,
) -> isambard_dri::trace::FlowGuard {
    span("trace.flow_open", || {
        isambard_dri::trace::flow(&infra.tracer, &u.label, name, Stage::Flow)
    })
}

fn flow_close(guard: isambard_dri::trace::FlowGuard) {
    span("trace.flow_close", || drop(guard));
}

fn sensitivity(infra: &Infrastructure, u: &User) -> Result<Sensitivity, String> {
    let subject = span("core.subject_of", || infra.subject_of(&u.label)).ok_or("no subject")?;
    let official = span("portal.active_projects_for", || {
        infra.portal.active_projects_for(&subject)
    })
    .iter()
    .any(|p| p.name == u.project && p.data_class == DataClass::Official);
    Ok(if official {
        Sensitivity::Elevated
    } else {
        Sensitivity::Standard
    })
}

/// The PDP consultation every story makes before touching a service.
fn consult_pdp(
    infra: &Infrastructure,
    u: &User,
    resource: &str,
    sensitivity: Sensitivity,
) -> Result<(), String> {
    let sid = span("core.session_of", || infra.session_of(&u.label)).map_err(text)?;
    let session =
        span("broker.session", || infra.broker.session(sid.as_str())).ok_or("session ended")?;
    let has_role = !span("portal.roles_for", || {
        infra.portal.roles_for(&session.subject, resource)
    })
    .is_empty();
    let hardware = session.acr == "mfa-hw";
    let request = AccessRequest {
        subject: session.subject.clone(),
        loa: session.loa,
        acr: session.acr.clone(),
        device: if hardware {
            DevicePosture::healthy()
        } else {
            DevicePosture::unknown()
        },
        source: if hardware {
            SourceZone::Management
        } else {
            SourceZone::Internet
        },
        session_age_secs: infra
            .clock
            .now_secs()
            .saturating_sub(session.established_at),
        resource: resource.to_string(),
        sensitivity,
        has_role,
    };
    let decision = span("policy.decide", || infra.pdp_decide(&request));
    if decision.allow {
        Ok(())
    } else {
        Err(format!("policy denied: {:?}", decision.reasons.first()))
    }
}

/// User story 6, one layer call at a time. Returns the notebook and the
/// headers that reached the edge (the jupyter token among them).
pub fn traced_story6(
    infra: &Infrastructure,
    u: &User,
    ip: &str,
) -> (Result<NotebookSession, String>, Option<Headers>) {
    let guard = flow_open(infra, u, "story6.jupyter");
    let mut sent = None;
    let result = (|| {
        span("core.session_of", || infra.session_of(&u.label)).map_err(text)?;
        let level = sensitivity(infra, u)?;
        consult_pdp(infra, u, "jupyter", level)?;
        let subject = span("core.subject_of", || infra.subject_of(&u.label)).ok_or("no subject")?;
        let account = span("portal.unix_accounts", || {
            infra.portal.unix_accounts(&subject)
        })
        .into_iter()
        .find(|(p, _)| *p == u.project)
        .map(|(_, a)| a)
        .ok_or("no unix account")?;
        let (token, _) = span("broker.issue_token", || {
            infra.token_for(
                &u.label,
                "jupyter",
                vec![
                    ("unix_account".to_string(), Value::s(account)),
                    ("project".to_string(), Value::s(&u.project)),
                ],
            )
        })
        .map_err(text)?;
        let mut headers = vec![("x-auth-token".to_string(), token)];
        if let Some(ctx) = span("trace.current_ctx", isambard_dri::trace::current_ctx) {
            headers.push(("traceparent".to_string(), ctx.traceparent()));
        }
        sent = Some(headers.clone());
        let response = span("netsim.edge_handle", || {
            infra.edge.handle(
                &infra.tunnel,
                ip,
                HttpRequest {
                    path: "/jupyter".into(),
                    headers,
                    body: Vec::new(),
                },
            )
        })
        .map_err(text)?;
        if response.status != 200 {
            return Err(format!(
                "unexpected status {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        let id = String::from_utf8_lossy(&response.body).to_string();
        let notebook = span("cluster.jupyter_session", || infra.jupyter.session(&id))
            .ok_or("spawned session missing")?;
        span("siem.emit", || {
            infra.emit(
                "mdc/login01",
                EventKind::NotebookSpawned,
                &notebook.subject,
                format!("notebook {} on job {}", notebook.id, notebook.job_id),
                Severity::Info,
            )
        });
        Ok(notebook)
    })();
    flow_close(guard);
    (result, sent)
}

/// Time the tunnel alone on a request the size of a story-6 request.
pub fn tunnel_probe(infra: &Infrastructure, headers: Headers) -> bool {
    span("netsim.tunnel_handle", || {
        infra.tunnel.handle(HttpRequest {
            path: ECHO_PATH.into(),
            headers,
            body: Vec::new(),
        })
    })
    .is_ok_and(|r| r.status == 200)
}

/// Federated login (IdP → proxy → broker session), one layer call at a time.
pub fn traced_login(infra: &Infrastructure, u: &User) -> Result<String, String> {
    let guard = flow_open(infra, u, "login.federated");
    let (_cuid, wire) = span("federation.proxy_authenticate", || {
        infra.proxy_authenticate(&u.label)
    })
    .map_err(text)?;
    let session = span("broker.login_federated", || {
        infra.broker.login_federated(PROXY_ENTITY, &wire)
    })
    .map_err(text)?;
    span("core.finish_login", || {
        if let Some(user) = infra.users.write().get_mut(&u.label) {
            user.session_id = Some(session.session_id.clone());
            user.subject = Some(session.subject.clone());
        }
    });
    span("siem.emit", || {
        infra.emit(
            "fds/broker",
            EventKind::AuthnSuccess,
            &session.subject,
            format!("session {} acr={}", session.session_id, session.acr),
            Severity::Info,
        )
    });
    flow_close(guard);
    Ok(session.session_id)
}

/// User story 4 (device flow, SSH CA, bastion relay, login node), one
/// layer call at a time.
pub fn traced_ssh(
    infra: &Infrastructure,
    u: &User,
) -> Result<(RelaySession, ShellSession), String> {
    let guard = flow_open(infra, u, "story4.ssh_connect");
    let sid = span("core.session_of", || infra.session_of(&u.label)).map_err(text)?;
    let level = sensitivity(infra, u)?;
    consult_pdp(infra, u, "ssh-ca", level)?;
    let mut client = span("core.take_ssh_client", || {
        infra
            .users
            .write()
            .get_mut(&u.label)
            .and_then(|user| user.ssh.take())
    })
    .unwrap_or_else(|| SshCertClient::new(&mut infra.rng.lock()));
    let issued = span("sshca.obtain_certificate", || {
        client.obtain_certificate(
            &infra.oidc,
            &infra.ssh_ca,
            "ssh-cert-cli",
            "ai.isambard",
            "sws/bastion",
            "mdc/login01",
            |user_code| {
                let _ = span("broker.approve_device", || {
                    infra.oidc.approve_device(user_code, sid.as_str())
                });
            },
        )
    });
    let outcome = (|| {
        issued.map_err(text)?;
        let cert = client.certificate.clone().ok_or("no certificate")?;
        span("siem.emit", || {
            infra.emit(
                "fds/ssh-ca",
                EventKind::CertIssued,
                &cert.key_id,
                format!("serial {} principals {:?}", cert.serial, cert.principals),
                Severity::Info,
            )
        });
        let alias = client
            .alias_for(&u.project)
            .cloned()
            .ok_or("no ssh alias for the project")?;
        let relay = span("netsim.bastion_relay", || {
            infra.bastion.relay(
                &infra.network,
                "internet/user",
                "mdc/login01",
                &cert,
                &alias.user,
            )
        })
        .map_err(text)?;
        let shell = span("cluster.login_open_session", || {
            infra
                .login_node
                .open_session(&cert, &alias.user, |challenge| {
                    span("sshca.sign_auth_challenge", || {
                        client.sign_auth_challenge(challenge)
                    })
                })
        })
        .map_err(text)?;
        Ok((relay, shell))
    })();
    span("core.return_ssh_client", || {
        if let Some(user) = infra.users.write().get_mut(&u.label) {
            user.ssh = Some(client);
        }
    });
    flow_close(guard);
    outcome
}

/// User story 3 with its portal, federation, cluster and login calls
/// timed apart. Returns the researcher's subject and UNIX account.
pub fn traced_onboard_researcher(
    infra: &Infrastructure,
    pi: &str,
    project_id: &ProjectId,
    project: &str,
    label: &str,
) -> (String, String) {
    span("flow.story3", || {
        let guard = span("trace.flow_open", || {
            isambard_dri::trace::flow(
                &infra.tracer,
                label,
                "story3.onboard_researcher",
                Stage::Flow,
            )
        });
        let pi_subject = span("core.subject_of", || infra.subject_of(pi)).expect("PI is onboarded");
        let invitation = span("portal.invite_researcher", || {
            infra.portal.invite_researcher(
                &pi_subject,
                project_id.as_str(),
                &format!("{label}@example.org"),
            )
        })
        .expect("PI may invite");
        let (cuid, _) = span("federation.proxy_authenticate", || {
            infra.proxy_authenticate(label)
        })
        .expect("researcher authenticates");
        let membership = span("portal.accept_invitation", || {
            infra
                .portal
                .accept_invitation(&invitation.token, &cuid, true)
        })
        .expect("invitation accepted");
        span("cluster.login_provision_account", || {
            infra
                .login_node
                .provision_account(&membership.unix_account, project)
        });
        span("core.federated_login", || infra.federated_login(label)).expect("researcher logs in");
        flow_close(guard);
        (cuid, membership.unix_account)
    })
}
