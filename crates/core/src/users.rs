//! Simulated humans and their client-side state (credentials, SSH
//! certificate client, hardware keys). These objects live "outside" the
//! infrastructure — they model what a real user's laptop holds.

use dri_broker::managed_idp::HardwareKey;
use dri_sshca::client::SshCertClient;

/// Which identity route a user authenticates through.
#[derive(Clone)]
pub enum UserKind {
    /// Institutional identity via MyAccessID federation.
    Federated {
        /// IdP entity id.
        idp_entity: String,
        /// Local username at the IdP.
        username: String,
        /// Password.
        password: String,
    },
    /// Identity Provider of Last Resort (password + TOTP).
    LastResort {
        /// Username in the managed directory.
        username: String,
        /// Password.
        password: String,
    },
    /// Administrator (dedicated IdP, hardware key).
    Admin {
        /// Username in the admin directory.
        username: String,
        /// Password.
        password: String,
        /// The user-held hardware key (boxed: it holds a signing key,
        /// far larger than the other variants).
        hw_key: Box<HardwareKey>,
    },
}

/// A simulated user with client-side state.
pub struct SimUser {
    /// Stable label used to address the user in the API.
    pub label: String,
    /// Identity route.
    pub kind: UserKind,
    /// Community id / subject once known (set on first login).
    pub subject: Option<String>,
    /// SSH certificate client (lazily created on first SSH story).
    pub ssh: Option<SshCertClient>,
    /// Current broker session id, if logged in.
    pub session_id: Option<String>,
}

impl SimUser {
    /// The broker-side subject for this user, if established.
    pub fn subject(&self) -> Option<&str> {
        self.subject.as_deref()
    }
}
