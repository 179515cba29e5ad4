"""Desk-scale lab for entropy-maximization unlearning in toy diffusion models."""

__version__ = "0.1.0"

from .diffusion import (LabeledDataset, LatentBatch, NoiseSchedule, ancestral_sample,
                        build_schedule, interclass_distance, latent_entropy_estimate,
                        sample_latent_batch)
from .denoiser import (DenoiserArch, DenoiserModel, TrainConfig, init_model, predict_eps,
                       train, train_step)
from .evaluation import (Classifier, EvalReport, FanoDiagnostic, differential_entropy_gaussian,
                         differential_entropy_uniform, evaluate, fano_bound,
                         frechet_distance, prediction_entropy, train_classifier,
                         unlearning_accuracy)
from .gradcore import SGD, ParamStore, Tape, backward, grad_check, sgd_step
from .unlearn import (UnlearnConfig, UnlearnLog, baseline_relabel_step, epsT_target, psi,
                      run_relabel_unlearning, run_unlearning, safemax_step)
