//! The onboarded population every workload runs against: 128 projects,
//! each with one PI and seven researchers, onboarded through user
//! stories 1 and 3.

use isambard_dri::prelude::*;

use crate::flows;

pub const PROJECTS: usize = 128;
pub const RESEARCHERS_PER_PROJECT: usize = 7;
pub const USERS: usize = PROJECTS * (1 + RESEARCHERS_PER_PROJECT);

/// One onboarded user and what a correct flow must run under.
pub struct User {
    pub label: String,
    pub project: String,
    pub subject: String,
    pub account: String,
}

/// Default configuration apart from the capacity sizing that lets every
/// user hold a notebook at once.
pub fn config() -> InfraConfig {
    InfraConfig::builder()
        .jupyter_capacity(USERS)
        .interactive_nodes(USERS as u32)
        .build()
        .expect("capacity sizing is a valid configuration")
}

/// Build the infrastructure and onboard the population. With `traced`,
/// story 3 runs as the benchmark's own sequence of layer calls so the
/// portal's share of it can be timed.
pub fn setup(traced: bool) -> (Infrastructure, Vec<User>) {
    let infra = Infrastructure::new(config());
    let mut users = Vec::with_capacity(USERS);
    for p in 0..PROJECTS {
        let project = format!("project-{p:03}");
        let pi = format!("pi-{p:03}");
        infra.create_federated_user(&pi, &format!("{pi}-pw"));
        let out = infra
            .story1_onboard_pi(&project, pi.as_str(), 10_000.0)
            .expect("story 1 onboards the PI");
        users.push(User {
            label: pi.clone(),
            project: project.clone(),
            subject: out.cuid.to_string(),
            account: out.unix_account,
        });
        for r in 0..RESEARCHERS_PER_PROJECT {
            let label = format!("res-{p:03}-{r}");
            infra.create_federated_user(&label, &format!("{label}-pw"));
            let (subject, account) = if traced {
                flows::traced_onboard_researcher(&infra, &pi, &out.project_id, &project, &label)
            } else {
                let res = infra
                    .story3_onboard_researcher(
                        pi.as_str(),
                        out.project_id.clone(),
                        &project,
                        label.as_str(),
                    )
                    .expect("story 3 onboards the researcher");
                (res.cuid.to_string(), res.unix_account)
            };
            users.push(User {
                label,
                project: project.clone(),
                subject,
                account,
            });
        }
    }
    (infra, users)
}
