"""Digital twin of a reflection-layer tactile sensor.

Simulates tactile images from parametric contact scenarios (Hertz/flat-punch
indentation, membrane decay, gradient-reflectance shading) and recovers
object class, oriented pose, location, and normal force by inverting the
forward model; includes the detection loss with simOTA assignment, circular
smooth angle labels, rotated-IoU geometry, and evaluation metrics.

Importing scipy.ndimage costs about 20 MB and 0.2 s, so the functions that
filter, label or measure distances import it when called, and the loss,
assignment and metrics never load it.
"""

from .assignment import (Assignment, LossBreakdown, PredictionField, bce,
                         loss_gradient, simota_assign, smooth_l1, total_loss)
from .contact import (ContactScenario, FootprintProbe, GroundTruth,
                      MaterialParams, SphereProbe, ground_truth, height_field,
                      hertz_indentation, punch_indentation)
from .dataset import DatasetSpec, generate_dataset, read_pgm, write_pgm
from .decoder import (Blob, ClassModel, DecodeConfig, Detection,
                      TactileDecoder, build_calibration, build_decoder,
                      build_templates, classify, difference_image,
                      estimate_force, estimate_pose, extract_blobs)
from .encoding import RegionGrid, build_region_grid, csl_decode, csl_encode
from .frames import SensorConfig
from .geometry import (OrientedBox, angle_error, normalize_angle, rotated_iou,
                       rotated_iou_pairs)
from .metrics import (MetricsReport, confusion_matrix, evaluate_detections,
                      mae, match_detections, precision_recall_ap, write_report)
from .render import (IlluminationModel, baseline_intensity, make_reference,
                     render, resolution_sweep, ring_lights, simulate)
from .toyhead import ToyHead, cell_features, fit_toy_head

__version__ = "0.1.0"
